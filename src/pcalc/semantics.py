"""First-order operational semantics: single steps, bounded state graphs,
their silent-step SCCs, divergence analysis, and one lazy silent-closure
helper, for terms, game state ids and graph states alike.

State identity everywhere is the canonical form, so graphs are quotiented by
structural congruence. Exploration is bounded and truncation is recorded
explicitly: a frontier state is one whose outgoing transitions were never
expanded, and downstream analyses must treat such graphs as partial.

Without restriction a state is a multiset of sequential parts, and every part
a reachable state holds is reached by stepping the roots' parts. Exploration
numbers those parts once, in term order, and explores states as sorted tuples
of part ids: a move replaces one id, or two for a communication, by the ids of
the derivatives, and a graph builds a state's term only when it is read.
The first-order bounded game of `equivalence` numbers the same tuples as it
meets them and plays over those ids.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass

from . import syntax
from .syntax import (
    NIL,
    InputPrefix,
    Nil,
    OutputPrefix,
    Par,
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


@dataclass(frozen=True)
class Action:
    kind: str  # 'tau' | 'in' | 'out'
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "_h", hash((self.kind, self.name)))
        object.__setattr__(self, "_sk", ({"tau": 0, "in": 1, "out": 2}[self.kind], self.name))

    def __hash__(self):
        return self._h

    @property
    def is_tau(self) -> bool:
        return self.kind == "tau"

    def complement(self) -> "Action":
        if self.kind == "in":
            return Action("out", self.name)
        if self.kind == "out":
            return Action("in", self.name)
        raise ValueError("tau has no complement")

    def sort_key(self):
        return self._sk

    def label(self) -> str:
        if self.kind == "tau":
            return "tau"
        if self.kind == "in":
            return self.name
        return "'" + self.name

    @staticmethod
    def from_label(label: str) -> "Action":
        if label == "tau":
            return TAU
        if label.startswith("'"):
            return Action("out", label[1:])
        return Action("in", label)


TAU = Action("tau")


@dataclass(frozen=True)
class Bounds:
    max_states: int = 2000
    max_depth: int = 64

    def __post_init__(self):
        if self.max_states < 1 or self.max_depth < 1:
            raise ValueError("bounds must be at least 1")


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

    def moves(self, state: tuple) -> set:
        """The moves of the parallel composition of state's parts:
        interleaving and communication. Equal parts step alike, so each
        distinct part steps once, from the state less that part."""
        out, prev = set(), None
        for i, q in enumerate(state):
            if q == prev:  # equal parts sit side by side
                continue
            prev, rest = q, state[:i] + state[i + 1 :]
            for a, d in self.part_moves[q]:
                out.add((a, tuple(sorted(rest + d)) if d else rest))
            for q_o, d in self.comms[q]:
                if q_o in rest:
                    j = rest.index(q_o)
                    out.add((0, tuple(sorted(rest[:j] + rest[j + 1 :] + d))))
        return out


def components(p: Term) -> Counter:
    """Multiset of parallel components of a canonical term."""
    return Counter(_parts_of(p))


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
    explored as sorted tuples of part ids (see `_Parts` and `_States`).
    """
    roots = [canonicalize(t) for t in terms]
    parts = _Parts([q for r in roots for q in _parts_of(r)], closed=True)
    index: dict = {}  # each state's number
    initials = [index.setdefault(parts.key(r), len(index)) for r in roots]
    keys = list(index)
    depth = [0] * len(keys)
    table = []  # per state: sorted (action id, target) pairs; () on the frontier
    frontier = set()
    for pos, key in enumerate(keys):  # runs on over the states it appends
        within = depth[pos] < bounds.max_depth
        moves = parts.moves(key) if within else ()
        new_targets = {t for _a, t in moves if t not in index}
        if not within or len(keys) + len(new_targets) > bounds.max_states:
            frontier.add(pos)  # at the depth bound, or its successors would pass the state bound
            table.append(())
        else:
            for t in sorted(new_targets, key=_state_order):
                index[t] = len(keys)
                keys.append(t)
                depth.append(depth[pos] + 1)
            table.append(tuple(sorted([(a, index[t]) for a, t in moves])))
    states = _States(parts, keys, dict(zip(initials, roots)))
    return Lts(states, table, tuple(initials), frozenset(frontier), actions=parts.actions)


class _States:
    """An explored graph's state terms, read as a list: the roots' as given,
    and state i's built from its part-id tuple `tuples[i]` on first read."""

    def __init__(self, parts: _Parts, tuples: list, terms: dict):
        self.parts, self.tuples, self.terms = parts, tuples, terms

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


@dataclass(frozen=True)
class SilentSccs:
    """The SCCs of a graph's silent steps, numbered sinks first: a silent step
    out of SCC c enters an SCC numbered below c.

    of[s]: the SCC of state s. members[c]: its states, ascending. cyclic[c]:
    whether its states lie on a silent cycle (more than one member, or a
    silent self-loop). exits[c]: the other SCCs one silent step from c reaches,
    ascending.
    """

    of: tuple
    members: tuple
    cyclic: tuple
    exits: tuple


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
# On a complete graph a state diverges iff it tau-reaches a tau-cycle. On a
# truncated graph a growth witness is also a sound yes: a tau-path s => t
# whose target's component multiset strictly contains the source's repeats
# forever, because steps survive added parallel context. The multisets are
# sorted part-id tuples, an edge-list graph's states' parts numbered first.


def _divergence_flags(lts: Lts):
    sccs = lts.silent_sccs()
    k = len(sccs.members)
    yes = [False] * k
    unknown = [False] * k
    reach, ids = [], {}  # per SCC, the states its members reach silently; an edge-list graph's part ids
    if lts.truncated and isinstance(lts.states, _States):
        keys = lts.states.tuples
    elif lts.truncated:  # an edge-list graph: its states' parts numbered here
        keys = [tuple(sorted(ids.setdefault(q, len(ids)) for q in _parts_of(p))) for p in lts.states]
    for c, scc in enumerate(sccs.members):
        exits = sccs.exits[c]
        yes[c] = sccs.cyclic[c] or any(yes[d] for d in exits)
        if not lts.truncated:
            continue
        reach.append(frozenset(scc).union(*(reach[d] for d in exits)))
        # a growth witness matters only where no cycle is reached already
        if not yes[c]:
            yes[c] = any(
                len(keys[v]) > len(keys[u]) and _within(keys[u], keys[v]) for u in scc for v in reach[c]
            )
        unknown[c] = any(u in lts.frontier for u in scc) or any(unknown[d] for d in exits)
    return [DIV_YES if yes[c] else DIV_UNKNOWN if unknown[c] else DIV_NO for c in sccs.of]


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
