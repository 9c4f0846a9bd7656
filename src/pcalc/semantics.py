"""First-order operational semantics: single steps, bounded state graphs,
their silent-step SCCs, divergence analysis, and one lazy silent-closure
helper, for terms, game state ids and graph states alike.

State identity everywhere is the canonical form, so graphs are quotiented by
structural congruence. Exploration is bounded and truncation is recorded
explicitly: a frontier state is one whose outgoing transitions were never
expanded, and downstream analyses must treat such graphs as partial.

Without restriction a state is a multiset of sequential parts, and every part
a reachable state holds is reached by stepping the roots' parts. Those parts
are numbered once, in term order, and states are sorted tuples of part ids: a
move replaces one id, or two for a communication, by the ids of the
derivatives. One table, `_States`, numbers the tuples and builds a state's
term only when it is read; graph exploration, the first-order bounded game of
`equivalence` and the certificate checker of `evidence` all run over it.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from typing import Optional

from . import syntax
from .syntax import (
    NIL,
    InputPrefix,
    Nil,
    OutputPrefix,
    Par,
    Record,
    Repl,
    Term,
    canonical_par,
    canonicalize,
    flat_key,
    interned,
    render,
    term_key,
)

DIV_YES = "yes"
DIV_NO = "no"
DIV_UNKNOWN = "unknown"


class TruncatedInput(ValueError):
    """An analysis that needs a complete graph got a truncated one."""


class Action(Record, frozen=True):
    """A move's label in either calculus: its kind, 'tau', 'in' or 'out', and
    channel name. A higher-order input or output also carries the process it
    receives or sends (`payload`); a first-order action has none."""

    _fields = ("kind", "name", "payload")

    def __init__(self, kind: str, name: str = "", payload: Optional[Term] = None):
        key = ({"tau": 0, "in": 1, "out": 2}[kind], name)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "_h", hash((kind, name, payload)))
        object.__setattr__(self, "_sk", key if payload is None else key + (term_key(payload),))

    def __hash__(self):
        return self._h

    @property
    def is_tau(self) -> bool:
        return self.kind == "tau"

    def complement(self) -> "Action":
        if self.kind == "in":
            return Action("out", self.name, self.payload)
        if self.kind == "out":
            return Action("in", self.name, self.payload)
        raise ValueError("tau has no complement")

    def sort_key(self):
        return self._sk

    def label(self) -> str:
        if self.kind == "tau":
            return "tau"
        if self.payload is None:
            return self.name if self.kind == "in" else "'" + self.name
        payload = render(self.payload, compact=True)
        return f"{self.name}({payload})" if self.kind == "in" else f"'{self.name}<{payload}>"

    @staticmethod
    def from_label(label: str) -> "Action":
        if label == "tau":
            return TAU
        if label.startswith("'"):
            return Action("out", label[1:])
        return Action("in", label)


TAU = Action("tau")


class Bounds(Record, frozen=True):
    _fields = ("max_states", "max_depth")

    def __init__(self, max_states: int = 2000, max_depth: int = 64):
        if max_states < 1 or max_depth < 1:
            raise ValueError("bounds must be at least 1")
        object.__setattr__(self, "max_states", max_states)
        object.__setattr__(self, "max_depth", max_depth)


# ---------------------------------------------------------------------------
# Single steps
#
# One rule, `_Parts.moves`, gives a parallel composition's moves over sorted
# part-id tuples: `step` runs it over one term's parts, and `union_lts` over
# every part its roots reach.

_step_cache: dict = {}
_TABLES = {
    "intern": syntax._intern,
    "canon": syntax._canon_cache,
    "binders": syntax._binders,
    "shift": syntax._shift_memo,
    "step": _step_cache,
}


def cache_info() -> dict:
    """Entry counts of the process-global memo tables: interned canonical
    terms, canonical forms, closed parts' binder counts, closed parts
    renamed from a binder offset, and single steps. They only grow,
    until `clear_caches`."""
    return {name: len(table) for name, table in _TABLES.items()}


def clear_caches() -> None:
    """Empties the process-global memo tables in place. Terms built before
    stay valid; equal terms built after are new representatives."""
    for table in _TABLES.values():
        table.clear()


def step(p: Term):
    """All transitions of p: a sorted, deduplicated tuple of (Action, target).

    Targets are canonical. Derivation rules: the two prefix axioms,
    interleaving, communication between parallel components, replication
    unfolding, and replication self-communication.
    """
    p = canonicalize(p)
    cached = _step_cache.get(p)
    if cached is None:
        cached = _step(p)
        _step_cache[p] = cached
    return cached


def _step(p: Term):
    if isinstance(p, Par):
        parts = _Parts(p.parts, closed=False)
        moves = sorted(parts.moves(parts.key(p)), key=_move_order)
        return tuple((parts.actions[a], parts.term(t)) for a, t in moves)
    moves = set()
    if isinstance(p, InputPrefix):
        moves.add((Action("in", p.name), p.cont))
    elif isinstance(p, OutputPrefix):
        moves.add((Action("out", p.name), p.cont))
    elif isinstance(p, Repl):
        inner = step(p.body)
        for act, t in inner:
            moves.add((act, canonical_par([t, p])))
        for act_in, t_in in inner:
            if act_in.kind != "in":
                continue
            for act_out, t_out in inner:
                if act_out.kind == "out" and act_out.name == act_in.name:
                    moves.add((TAU, canonical_par([t_in, t_out, p])))
    elif not isinstance(p, Nil):
        raise TypeError(f"not a first-order term: {p!r}")
    return tuple(sorted(moves, key=lambda m: (m[0].sort_key(), term_key(m[1]))))


def _parts_of(p: Term) -> tuple:
    """The parallel components of a canonical term, in term order."""
    if isinstance(p, Nil):
        return ()
    if isinstance(p, Par):
        return p.parts
    return (p,)


def _state_order(t):
    """Orders sorted part-id tuples as term_key orders their terms: nil, then
    one sequential part, then parallels by their parts."""
    return (len(t) > 1, t)


def _move_order(m):
    return (m[0], _state_order(m[1]))


class _Parts:
    """The sequential parts that steps from `roots` reach, numbered in term
    order, with the moves of the stepped ones: the roots, and every part when
    `closed`. A state is the sorted tuple of its parts' ids, and a move is
    (action id, target state); actions are numbered in sort-key order, so tau
    is 0.
    """

    def __init__(self, roots, closed: bool):
        stepped = {}
        todo = list(dict.fromkeys(roots))
        found = set(todo)
        while todo:
            q = todo.pop()
            stepped[q] = step(q)
            for _a, t in stepped[q]:
                for c in _parts_of(t):
                    if c not in found:
                        found.add(c)
                        if closed:
                            todo.append(c)
        self.parts = sorted(found, key=flat_key)  # term order, compared in linear time
        self.id = {q: i for i, q in enumerate(self.parts)}
        self.actions = sorted({a for ms in stepped.values() for a, _t in ms} | {TAU}, key=Action.sort_key)
        aid = {a: i for i, a in enumerate(self.actions)}
        partner = [aid.get(a.complement()) if a.kind == "in" else None for a in self.actions]
        self.part_moves = [None] * len(self.parts)
        for q, ms in stepped.items():
            self.part_moves[self.id[q]] = [(aid[a], self.key(t)) for a, t in ms]
        # per part, its silent moves (action id 0)
        self.part_taus = [ms and [m for m in ms if not m[0]] for ms in self.part_moves]
        # per part, its communications as the input side: (output part, both derivatives' ids). Only
        # distinct parts talk: two copies of a replication reach by talking what one reaches alone.
        steps = [(q, a, d) for q, ms in enumerate(self.part_moves) for a, d in ms or ()]
        self.comms = [[] for _ in self.parts]
        for q, a, d in steps:
            if partner[a] is not None:
                self.comms[q] += [(q_o, d + d_o) for q_o, a_o, d_o in steps if a_o == partner[a] and q_o != q]

    def key(self, p: Term) -> tuple:
        """The state of canonical term p, whose parts must be numbered."""
        return tuple(self.id[q] for q in _parts_of(p))

    def term(self, t: tuple) -> Term:
        """The canonical term of state t, built with its parts in order."""
        if len(t) == 1:
            return self.parts[t[0]]
        return interned(Par(tuple(self.parts[i] for i in t))) if t else NIL

    def moves(self, state: tuple, silent: bool = False) -> set:
        """The moves of the parallel composition of state's parts:
        interleaving and communication; with `silent`, its silent moves only.
        Equal parts step alike, so each distinct part steps once, from the
        state less that part."""
        out, prev = set(), None
        own = self.part_taus if silent else self.part_moves
        for i, q in enumerate(state):
            if q == prev:  # equal parts sit side by side
                continue
            prev, rest = q, state[:i] + state[i + 1 :]
            for a, d in own[q]:
                out.add((a, tuple(sorted(rest + d)) if d else rest))
            for q_o, d in self.comms[q]:
                if q_o in rest:
                    j = rest.index(q_o)
                    out.add((0, tuple(sorted(rest[:j] + rest[j + 1 :] + d))))
        return out


# ---------------------------------------------------------------------------
# Bounded graphs


class Lts:
    """A finite, possibly truncated transition graph over canonical terms.

    States are pairwise distinct canonical terms, an explored graph's built on
    first read (`_States`); frontier states are those whose outgoing
    transitions were not expanded, and the graph is truncated when there are
    any. diverges holds one of 'yes'/'no'/'unknown' per state, computed by
    the constructor.

    The moves are stored once, int-coded: `actions` numbers the actions in
    sort-key order, so tau is 0, and moves[s] holds s's sorted (action id,
    target) pairs, its silent moves first. `edges` and `succ` are views of
    that table. The constructor takes (src, Action, dst) edges, or, when
    `actions` is given, the sorted table itself.
    `partitions` memoises each kind's refinement from the divergence split
    (`equivalence.compute_partition`), each pair kind's relation
    (`equivalence.relation`) and the divergence-blind strong refinement
    (`evidence.distinguishing_formula`).
    """

    def __init__(self, states, edges, initials, frontier, actions=None):
        if actions is None:
            actions = sorted({a for _s, a, _t in edges} | {TAU}, key=Action.sort_key)
            aid = {a: i for i, a in enumerate(actions)}
            rows = [[] for _ in range(len(states))]
            for s, a, t in edges:
                rows[s].append((aid[a], t))
            edges = [tuple(sorted(row)) for row in rows]
        self.states, self.initials = states, initials
        self.truncated, self.frontier = bool(frontier), frontier
        self.actions, self.moves = tuple(actions), edges
        self._succ = [None] * len(states)
        self.partitions = {}
        self._sccs = _silent_sccs(self)
        self.diverges = _divergence_flags(self)

    @property
    def initial(self) -> int:
        return self.initials[0]

    @property
    def edges(self) -> list:
        """(src, Action, dst), by source, then in move order: built on each read."""
        acts = self.actions
        return [(s, acts[a], t) for s, row in enumerate(self.moves) for a, t in row]

    def succ(self, s: int):
        """s's moves as (Action, target), built on first read and kept."""
        row = self._succ[s]
        if row is None:
            acts = self.actions
            row = self._succ[s] = [(acts[a], t) for a, t in self.moves[s]]
        return row

    def silent_sccs(self) -> "SilentSccs":
        """The SCCs of the silent steps."""
        return self._sccs

    def tau_succ(self, s: int):
        row = self.moves[s]
        return [t for _a, t in row[: bisect_left(row, (1,))]]  # silent moves sort first

    def num_states(self) -> int:
        return len(self.states)

    def to_json(self) -> dict:
        return {
            "states": [render(s, compact=True) for s in self.states],
            "edges": [[s, a.label(), t] for s, a, t in self.edges],
            "initial": self.initial,
            "initials": list(self.initials),
            "truncated": self.truncated,
            "frontier": sorted(self.frontier),
            "diverges": list(self.diverges),
        }

    def to_dot(self) -> str:
        lines = ["digraph lts {", "  rankdir=LR;"]
        for i, s in enumerate(self.states):
            shape = "doublecircle" if self.diverges[i] == DIV_YES else "circle"
            label = render(s, compact=True).replace('"', '\\"')
            extra = ", style=bold" if i in self.initials else ""
            lines.append(f'  n{i} [shape={shape}, label="{label}"{extra}];')
        for s, a, t in self.edges:
            lines.append(f'  n{s} -> n{t} [label="{a.label()}"];')
        lines.append("}")
        return "\n".join(lines)


def build_lts(p: Term, bounds: Bounds = Bounds()) -> Lts:
    return union_lts([p], bounds)


def union_lts(terms, bounds: Bounds = Bounds()) -> Lts:
    """Breadth-first exploration from one or more roots over one state space.

    Deterministic: states are numbered in BFS discovery order with term-order
    tie-breaking among one state's newly discovered successors. A state is
    either fully expanded or left on the frontier untouched. States are
    explored as sorted tuples of part ids, numbered by one `_States` table,
    which the graph keeps, sealed, as its states.
    """
    states = _States(terms)
    initials = [states.state(r) for r in terms]
    # not the memoised `step`: a state's new targets are numbered only once
    # the state bound admits them all, and the table's rows sort by number
    ids, keys, moves_of = states.ids, states.tuples, states.parts.moves
    depth = [0] * len(keys)
    table = []  # per state: sorted (action id, target) pairs; () on the frontier
    frontier = set()
    for pos, key in enumerate(keys):  # runs on over the states it appends
        within = depth[pos] < bounds.max_depth
        moves = moves_of(key) if within else ()
        new_targets = {t for _a, t in moves if t not in ids}
        if not within or len(keys) + len(new_targets) > bounds.max_states:
            frontier.add(pos)  # at the depth bound, or its successors would pass the state bound
            table.append(())
        else:
            for t in sorted(new_targets, key=_state_order):
                states.number(t)
                depth.append(depth[pos] + 1)
            table.append(tuple(sorted([(a, ids[t]) for a, t in moves])))
    states.seal()
    return Lts(states, table, tuple(initials), frozenset(frontier), actions=states.parts.actions)


class _States:
    """The one table of numbered part-id states: over the closed `_Parts` of
    `roots`, it numbers a sorted part-id tuple the first time it sees it
    (`number`, `state` for a term). Graph exploration, the first-order
    bounded game and certificates all read their states through it.

    `step(i)` is state i's moves as (action id, state id) pairs, sorted by
    action, then target in term order, and memoised; `order(i)` is the sort
    key of state i in term order. Both close over the table's dict and list
    and the parts' moves, not over the table, so a game or checker holding
    them ties no reference cycle. Read as a list, the table gives state i's
    term, built on first read and kept.
    """

    def __init__(self, roots):
        self.parts = parts = _Parts([q for r in roots for q in _parts_of(canonicalize(r))], closed=True)
        ids, tuples = {}, []
        self.ids, self.tuples, self.terms = ids, tuples, {}

        def number(t: tuple) -> int:
            i = ids.get(t)
            if i is None:
                i = ids[t] = len(tuples)
                tuples.append(t)
            return i

        moves = parts.moves
        self.number = number
        self.step = functools.lru_cache(maxsize=None)(
            lambda i: tuple((a, number(t)) for a, t in sorted(moves(tuples[i]), key=_move_order))
        )
        self.order = lambda i: _state_order(tuples[i])

    def seal(self):
        """Drops the numbering once no state is left to number, as after a
        graph's exploration, so the graph does not keep a second index of
        its states: the table then reads as a list only."""
        self.ids.clear()
        self.number = self.step = None

    def state(self, p: Term):
        """The id of term p, numbered on first sight, or None when p holds a
        part the roots never reach."""
        try:
            return self.number(self.parts.key(canonicalize(p)))
        except KeyError:
            return None

    def __len__(self):
        return len(self.tuples)

    def __getitem__(self, i):  # iteration reads on up to the IndexError past the end
        p = self.terms.get(i)
        if p is None:
            p = self.terms[i] = self.parts.term(self.tuples[i])
        return p

    def __eq__(self, other):
        return list(self) == (list(other) if isinstance(other, _States) else other)

    def index(self, p: Term) -> int:
        return list(self).index(p)


# ---------------------------------------------------------------------------
# Silent-step SCCs
#
# One iterative Tarjan pass (Tarjan, SIAM J. Comput. 1972) over the silent
# edges. States of one SCC reach the same states silently, so divergence and
# the weak and branching signatures are computed once per SCC, sinks first,
# from the SCCs one silent step leaves it for.


class SilentSccs(Record, frozen=True):
    """The SCCs of a graph's silent steps, numbered sinks first: a silent step
    out of SCC c enters an SCC numbered below c.

    of[s]: the SCC of state s. members[c]: its states, ascending. cyclic[c]:
    whether its states lie on a silent cycle (more than one member, or a
    silent self-loop). exits[c]: the other SCCs one silent step from c reaches,
    ascending.
    """

    _fields = ("of", "members", "cyclic", "exits")

    def __init__(self, of: tuple, members: tuple, cyclic: tuple, exits: tuple):
        object.__setattr__(self, "of", of)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "cyclic", cyclic)
        object.__setattr__(self, "exits", exits)


def _silent_sccs(lts: Lts) -> SilentSccs:
    n = lts.num_states()
    adj = [lts.tau_succ(s) for s in range(n)]
    index = [-1] * n
    low = [0] * n
    of = [-1] * n
    stack = []
    members = []
    visits = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = visits
        visits += 1
        stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = visits
                    visits += 1
                    stack.append(w)
                    work.append((w, iter(adj[w])))
                    break
                if of[w] < 0:  # still on the stack
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    c = len(members)
                    scc = []
                    while True:
                        w = stack.pop()
                        of[w] = c
                        scc.append(w)
                        if w == v:
                            break
                    members.append(tuple(sorted(scc)))
    cyclic = []
    exits = []
    for c, scc in enumerate(members):
        cyclic.append(len(scc) > 1 or scc[0] in adj[scc[0]])
        exits.append(tuple(sorted({of[t] for u in scc for t in adj[u]} - {c})))
    return SilentSccs(tuple(of), tuple(members), tuple(cyclic), tuple(exits))


# ---------------------------------------------------------------------------
# Divergence
#
# A state diverges iff it is on a tau-cycle or a silent step leads to a state
# that diverges; a frontier state is decided on its term by `silent_run`.


def _divergence_flags(lts: Lts):
    sccs, table, memo, flags = lts.silent_sccs(), lts.states, {}, []
    if lts.truncated and not isinstance(table, _States):  # an edge-list graph: number its states' terms
        table = _States(table)
        for p in lts.states:
            table.state(p)
    for c, scc in enumerate(sccs.members):
        after = [flags[d] for d in sccs.exits[c]]
        if sccs.cyclic[c] or DIV_YES in after:
            flags.append(DIV_YES)
        elif scc[0] in lts.frontier:  # a frontier state has no moves, so it is an SCC alone
            flags.append(silent_run(table.parts, table.tuples[scc[0]], memo))
        else:
            flags.append(DIV_UNKNOWN if DIV_UNKNOWN in after else DIV_NO)
    return [flags[c] for c in sccs.of]


# One silent-run search's work cap: a state read counts one, and one more per
# ancestor it is compared with, so the cap bounds a long path's quadratic time.
_SILENT_RUN_CAP = 1_000_000


def silent_run(parts: _Parts, state: tuple, memo: dict) -> str:
    """Whether state, a sorted tuple of ids of closed `parts`, has an infinite
    silent run: 'yes', 'no', or 'unknown' past `_SILENT_RUN_CAP` work. A
    depth-first search: a run that reaches a state covering an ancestor (as a
    multiset: equal closes a cycle, larger grows) repeats forever, as steps
    survive added parallel context, and by Dickson's lemma every infinite run
    reaches one (Karp and Miller, JCSS 1969). memo keeps answers by state."""
    path, work, cost = [], [iter([state])], 0  # work[i + 1]: the unread silent moves of path[i]
    while work:
        for t in work[-1]:
            seen = memo.get(t)
            if seen == DIV_NO:
                continue
            if seen == DIV_YES or any(len(u) <= len(t) and _within(u, t) for u in path):
                memo.update(dict.fromkeys(path, DIV_YES))  # every state on the path reaches t
                return DIV_YES
            cost += 1 + len(path)
            if cost > _SILENT_RUN_CAP:
                return DIV_UNKNOWN
            path.append(t)
            work.append(iter([u for _a, u in parts.moves(t, silent=True)]))
            break
        else:
            work.pop()
            if path:
                memo[path.pop()] = DIV_NO
    return DIV_NO


def _within(u: tuple, v: tuple) -> bool:
    """Whether sorted tuple u is a sub-multiset, so a subsequence, of v."""
    rest = iter(v)
    return all(q in rest for q in u)


def diverges(lts: Lts, s: int) -> str:
    if not 0 <= s < lts.num_states():
        raise KeyError(f"unknown state {s}")
    return lts.diverges[s]


# ---------------------------------------------------------------------------
# Silent closures
#
# One lazy helper serves terms, game state ids and graph states alike: `step`
# is the term semantics (or a higher-order one) over Actions, or int-coded
# moves, (action id, target id) with tau 0: a first-order game's over the ids
# of its part-id tuples, or a graph's `moves` rows.


class SilentClosures(dict):
    """Silent closures through `step`, keyed by root. Each is explored
    breadth-first on demand and holds at most `cap` states, none more than
    `bound` silent steps from its root (no depth limit when bound is None).
    A step by action `silent` is silent, and `order` is the sort key of the
    states in term order (None: the states' own order); both default to the
    term semantics.
    """

    def __init__(self, step, bound, cap, silent=TAU, order=term_key):
        super().__init__()
        self.step, self.bound, self.cap, self.silent, self.order = step, bound, cap, silent, order

    def __missing__(self, root):
        self[root] = closure = _Closure(root, self.step, self.bound, self.cap, self.silent, self.order)
        return closure

    def weak_moves(self, root, matches):
        """root's moves => -a-> => with matches(a), as distinct (a, target)
        pairs in closure order, and whether every closure read is complete."""
        pres, complete = self[root].states()
        out = {}
        for pre in pres:
            for a, mid in self.step(pre):
                if matches(a):
                    after, done = self[mid].states()
                    complete = complete and done
                    out.update(dict.fromkeys([(a, t) for t in after]))
        return tuple(out), complete


class _Closure:
    """Iterating yields the states in breadth-first order, exploring only as
    far as it is read; `states()` reads the whole closure."""

    # one per state a game or trace search reads: no per-instance dict
    __slots__ = ("step", "bound", "cap", "silent", "key", "depth", "order", "pos", "cut", "_states")

    def __init__(self, root, step, bound, cap, silent, key):
        self.step, self.bound, self.cap, self.silent, self.key = step, bound, cap, silent, key
        self.depth = {root: 0}
        self.order = [root]  # breadth-first; the states before pos are expanded
        self.pos = 0
        self.cut = False  # a silent step was left out by the bound or the cap
        self._states = None

    def _expand(self) -> bool:
        """Expands the next state in order; False when every state is expanded."""
        if self.pos == len(self.order):
            return False
        u = self.order[self.pos]
        self.pos += 1
        inside = self.bound is None or self.depth[u] < self.bound
        silent = self.silent
        for a, t in self.step(u):
            if a == silent and t not in self.depth:
                if inside and len(self.order) < self.cap:
                    self.depth[t] = self.depth[u] + 1
                    self.order.append(t)
                else:
                    self.cut = True
        return True

    def __iter__(self):
        i = 0
        while i < len(self.order) or self._expand():
            if i < len(self.order):
                yield self.order[i]
                i += 1

    def states(self):
        """All the states in the helper's order, and whether no silent step
        was cut off."""
        if self._states is None:
            self._states = (tuple(sorted(self, key=self.key)), not self.cut)
        return self._states


def closures(lts: Lts) -> SilentClosures:
    """The silent closures of a complete graph's states through its int-coded
    `moves`, exact: no depth bound, and a cap no closure can reach."""
    if lts.truncated:
        raise TruncatedInput("closures need a complete graph")
    return SilentClosures(lts.moves.__getitem__, None, lts.num_states(), 0, None)
