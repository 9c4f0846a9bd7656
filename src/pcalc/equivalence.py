"""Behavioral equivalence checkers over complete graphs, plus bounded
on-the-fly games for graphs that cannot be fully explored. Each kind's
transfer clause is written once (`_respond`), over the lazy silent closures of
`semantics` and int codes: action ids, tau 0, and states that are graph states
(trace extraction) or the ids of the part-id state table (`semantics._States`)
that exploration, the first-order bounded game and trace replay share. One
move protocol (`_Game`) serves every attacker search: trace extraction's rank
search, the first-order game and the higher-order context game (`hocore`),
which plays over terms and labels its moves with `Action`s that carry payloads.

Five relations are supported, all divergence-sensitive and all computed by
one signature-refinement loop: strong, weak, branching, quasi-strong and
quasi-strong-branching bisimilarity. Each is an equivalence, returned as a
`Partition` of the graph's states; the last two are refined from the weak or
branching classes. Refuted pairs come with a minimal, replayable attacker
trace, built from ranks searched on demand.

Every signature codes a move to block b by action id a as a * width + b. A
strong signature is read off a state's own moves. The others are built once
per silent-step SCC, sinks first, from the SCC's own moves and the signatures
of the SCCs its silent steps lead to, so refinement reads no weak closures.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from operator import itemgetter
from typing import Optional

from . import semantics
from .semantics import Action, Bounds, Lts, SilentClosures, TruncatedInput, _States, closures, union_lts
from .syntax import Record, Term, canonicalize, render, sc_equal

PARTITION_KINDS = ("strong", "weak", "branching")
PAIR_KINDS = ("quasi-strong", "qs-branching")
CCSM_KINDS = PARTITION_KINDS + PAIR_KINDS


class InvalidRequest(ValueError):
    pass


# ---------------------------------------------------------------------------
# Witness values


class Partition(Record):
    _fields = ("kind", "block_of", "iterations", "splits")
    _uncompared = _unrepr = ("splits",)

    def __init__(self, kind: str, block_of: tuple, iterations: int = 0, splits: tuple = None):
        self.kind = kind
        self.block_of = block_of
        self.iterations = iterations
        # how the refinement split its blocks, a forest of at most 2n nodes: a
        # parent and a round per node, -1 the parent of a root, and the node of
        # each final block. A root is a block of the initial partition; a block
        # that a round splits in k gets k children, each labelled with that round.
        self.splits = splits

    def relates(self, s: int, t: int) -> bool:
        return self.block_of[s] == self.block_of[t]

    def separation_round(self, s: int, t: int):
        """The refinement round that first put s and t in different blocks: 0
        when the initial partition did, inf when no round did. It is the round
        of the children of the two final blocks' lowest common ancestor."""
        parent, rounds, leaf = self.splits
        x, y = leaf[self.block_of[s]], leaf[self.block_of[t]]
        if x == y:
            return math.inf
        # rounds grow down every path, so climbing from the node of the later
        # round reaches the ancestor's two children together
        while parent[x] != parent[y]:
            if rounds[x] >= rounds[y]:
                x = parent[x]
            else:
                y = parent[y]
        return rounds[x]

    def round_block_of(self, k: int) -> list:
        """The partition after round k, numbered by first member as `_refine`
        numbers rounds: per state, its final block's latest ancestor up to k."""
        parent, rounds, leaf = self.splits
        node = []
        for x in leaf:
            while rounds[x] > k:
                x = parent[x]
            node.append(x)
        return _index_groups(node[b] for b in self.block_of)

    @property
    def blocks(self):
        groups = {}
        for s, b in enumerate(self.block_of):
            groups.setdefault(b, []).append(s)
        return tuple(tuple(g) for _b, g in sorted(groups.items()))

    @property
    def pairs(self) -> frozenset:
        """The related pairs (i, j) with i < j."""
        return frozenset(p for block in self.blocks for p in itertools.combinations(block, 2))

    def to_json(self) -> dict:
        if self.kind in PAIR_KINDS:  # every related (i, j) with i <= j
            pairs = sorted([s, t] for block in self.blocks for i, s in enumerate(block) for t in block[i:])
            return {"kind": self.kind, "pairs": pairs}
        return {"kind": self.kind, "blocks": [list(b) for b in self.blocks]}


class TraceStep(Record):
    _fields = ("side", "action", "after", "rolled_back", "context")

    def __init__(self, side: str, action: Action, after: tuple, rolled_back: bool = False, context: str = ""):
        self.side = side  # 'left' | 'right'
        self.action = action
        self.after = after  # (left term, right term)
        self.rolled_back = rolled_back  # defender advanced to an intermediate state only
        self.context = context  # in a context game, the context an output answer was plugged into

    def to_json(self) -> dict:
        out = {
            "side": self.side,
            "action": self.action.label(),
            "after": [render(self.after[0], compact=True), render(self.after[1], compact=True)],
        }
        if self.rolled_back:
            out["rolled_back"] = True
        if self.context:
            out["context"] = self.context
        return out


class AttackerTrace(Record):
    _fields = ("kind", "start", "steps", "reason", "final_side", "final_action", "rank_pairs")
    _uncompared = ("rank_pairs",)

    def __init__(self, kind: str, start: tuple, steps: tuple, reason: str, final_side: str = "",
                 final_action: Optional[Action] = None, rank_pairs: int = 0):
        self.kind = kind
        self.start = start  # (left term, right term)
        self.steps = steps
        self.reason = reason  # 'no-match' | 'divergence-mismatch'
        self.final_side = final_side
        self.final_action = final_action
        self.rank_pairs = rank_pairs  # search cost, not part of the trace

    def __len__(self):
        n = len(self.steps)
        if self.reason == "no-match":
            n += 1
        return n

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "start": [render(self.start[0], compact=True), render(self.start[1], compact=True)],
            "steps": [s.to_json() for s in self.steps],
            "reason": self.reason,
        }
        if self.reason == "no-match":
            out["final"] = {"side": self.final_side, "action": self.final_action.label()}
        return out


class Verdict(Record):
    _fields = ("outcome", "kind", "witness", "trace", "bound_report", "stats")

    def __init__(self, outcome: str, kind: str, witness: object = None, trace: Optional[AttackerTrace] = None,
                 bound_report: Optional[dict] = None, stats: Optional[dict] = None):
        self.outcome = outcome  # 'equivalent' | 'inequivalent' | 'unknown'
        self.kind = kind
        self.witness = witness
        self.trace = trace
        self.bound_report = bound_report
        self.stats = {} if stats is None else stats

    def to_json(self) -> dict:
        out = {"outcome": self.outcome, "kind": self.kind}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        if self.trace is not None:
            out["trace"] = self.trace.to_json()
        if self.bound_report is not None:
            out["bound"] = self.bound_report
        out["stats"] = dict(self.stats)
        return out


# ---------------------------------------------------------------------------
# Partition refinement


def compute_partition(lts: Lts, kind: str) -> Partition:
    """Coarsest divergence-sensitive partition for any of the five kinds.

    The initial partition splits by the divergence flag; each round then
    splits blocks by signatures (see `_refine`) until nothing changes.
    Memoised on the graph: every call for one kind returns the same
    partition. It is a partition kind's relation. A pair kind's relation has
    the same blocks, but `relation` refines it from the weak or branching
    classes instead, in fewer rounds; trace extraction reads the rounds of
    this refinement for every kind.
    """
    if kind not in CCSM_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if lts.truncated:
        raise TruncatedInput("partitions need a complete graph")
    part = lts.partitions.get(kind)
    if part is None:
        part = lts.partitions[kind] = _refine(lts, kind, _index_groups([(d,) for d in lts.diverges]))
    return part


def _refine(lts: Lts, kind: str, block_of) -> Partition:
    """Splits the blocks of block_of by kind signatures until a round splits
    none. A signature is a frozenset of move codes (strong, branching) or bitmasks
    over them (weak, the quasi-strong kinds); see `_silent_signatures`.

    A state alone in its block can never split again, so a round signs only
    the live states, those in blocks of at least two members (`live` None:
    every state is live). The others sign as None, and their blocks alone
    set them apart, so every round numbers its blocks, and counts its
    rounds, as if it had signed every state. A round with no live state is
    the confirming round: it counts, and computes nothing.

    The partition's `splits` records which round split which block, in
    O(blocks) per round: each new block's key starts with its old block. It
    is the one record of the rounds (see `Partition.round_block_of`).
    """
    signatures = _strong_signatures(lts) if kind == "strong" else _silent_signatures(lts, kind)
    roots = max(block_of, default=-1) + 1
    parent, rounds, node = [-1] * roots, [0] * roots, list(range(roots))  # node: per block, its forest node
    iterations = 0
    while True:
        iterations += 1
        sizes = Counter(block_of)
        if len(sizes) == len(block_of):
            return Partition(kind, tuple(block_of), iterations, (parent, rounds, node))
        live = [sizes[b] > 1 for b in block_of] if 1 in sizes.values() else None
        new_block_of, olds = _next_round(block_of, signatures(block_of, live))
        pieces = Counter(olds)
        nodes = []
        for b in olds:
            if pieces[b] > 1:
                parent.append(node[b])
                rounds.append(iterations)
                nodes.append(len(parent) - 1)
            else:
                nodes.append(node[b])
        node = nodes
        if max(new_block_of, default=-1) == max(block_of, default=-1):
            return Partition(kind, tuple(new_block_of), iterations, (parent, rounds, node))
        block_of = new_block_of


def _next_round(block_of, signatures):
    """The blocks of (block, signature) keys, numbered by first member, and
    each new block's old block."""
    ids = {}
    new_block_of = [ids.setdefault(k, len(ids)) for k in zip(block_of, signatures)]
    return new_block_of, [b for b, _sig in ids]


def _index_groups(keys):
    ids = {}
    return [ids.setdefault(k, len(ids)) for k in keys]


def _strong_signatures(lts: Lts):
    moves = lts.moves

    def signatures(block_of, live):
        width = max(block_of, default=0) + 1
        return [
            frozenset(a * width + block_of[t] for a, t in row) if live is None or live[s] else None
            for s, row in enumerate(moves)
        ]

    return signatures


# Quasi-strong and qs-branching bisimilarity match a silent step with exactly
# one silent step, and a visible step s -a-> s' with t => m -a-> t' (for
# qs-branching, with m related to s).
# - The largest such bisimulation is an equivalence: R1;R2 is again one,
#   because each silent step is matched by exactly one silent step. If
#   p R1 q R2 r and q => m -a-> q' matches p -a-> p', r matches q => m step
#   by step, r => m2 with m R2 m2, and m2 => m3 -a-> r' matches m -a-> q';
#   so p' R1;R2 r', and for qs-branching p R1 m R2 m3.
# - So it is the coarsest partition, split by the divergence flag, stable under
#     quasi-strong: sig(s) = {(tau,[t]) | s -tau-> t} | {(a,[t]) | s => -a-> t}
#     qs-branching: the visible part is {(a,[t]) | s => m -a-> t, [m] = [s]}.
#   A partition stable under sig is a bisimulation: s -a-> s' is itself an
#   (a,[s']) entry of sig(s). In the largest one, t matches a path s => m step
#   by step up to some t_m ~ m, which answers m -a-> t by t_m => m' -a-> t'
#   with m' ~ m. So related states have equal signatures, and refinement from
#   the seed never separates them. Only the last mid has to be in the own
#   block; the path to it may leave the block.


def _silent_signatures(lts: Lts, kind: str):
    """Weak, branching, quasi-strong or qs-branching signatures, built once
    per silent SCC, sinks first, from the SCC's own visible moves and the
    SCCs its silent steps exit to (`exits`), whose signatures are already
    built. A round builds them only for the live states (see `_refine`) and
    the SCCs those states read; the others sign as None. A move to block b by
    action id a has code a * width + b, so a silent move's code is its block.

    Under weak and branching, the members of a silent SCC share a block in
    every round: they start with one divergence flag, and as they reach the
    same states silently, a round gives them one signature. So the block of
    an SCC is that of its first member, and so is its liveness.

    - branching: the moves out of the SCC's silent closure within its own
      block, as a set of codes. A silent exit into the own block is inert:
      that SCC's signature is part of this one. This is the set a search from
      each member along silent steps inside its block would find. An inert
      exit of a live SCC shares its block, so it is live too: only the live
      SCCs are built.
    - weak, quasi-strong, qs-branching: one pass (`closure_moves`) builds,
      per SCC, the moves s => m -a-> t its members share, as one bitmask over
      codes per key: the mid's block for qs-branching, 0 otherwise. The
      quasi-strong kinds code t by its block; weak codes it by every block t
      reaches silently, each a t' of s =>a=> t'. A weak signature pairs that
      mask with `reach`, the blocks its SCC reaches silently; a quasi-strong
      one, per state, adds its silent successors' blocks to the mask.
    """
    sccs = lts.silent_sccs()
    moves = lts.moves
    visible = [[(u, a, t) for u in scc for a, t in moves[u] if a] for scc in sccs.members]
    first = [scc[0] for scc in sccs.members]
    of, exits = sccs.of, sccs.exits

    def closure_moves(block_of, live, key, code):
        """Per SCC: key -> bitmask of code(a, t) over its members' moves
        s => m -a-> t, keyed by key[m], kept for the keys that live states
        read at or above it."""
        need = [0] * len(first)  # per SCC: bitmask of the keys live states read at or above it
        for c in reversed(range(len(first))):
            for u in sccs.members[c]:
                if live is None or live[u]:
                    need[c] |= 1 << key[u]
            for d in exits[c]:
                need[d] |= need[c]
        after = []
        for c in range(len(first)):
            w = {}
            if need[c]:
                for d in exits[c]:
                    for b, m in after[d].items():
                        if need[c] >> b & 1:
                            w[b] = w.get(b, 0) | m
                for u, a, t in visible[c]:
                    w[key[u]] = w.get(key[u], 0) | code(a, t)
            after.append(w)
        return after

    def weak(block_of, live):
        width = max(block_of, default=0) + 1
        reach = []
        for c, f in enumerate(first):
            r = 1 << block_of[f]
            for d in exits[c]:
                r |= reach[d]
            reach.append(r)
        after = closure_moves(block_of, live, [0] * len(of), lambda a, t: reach[of[t]] << a * width)
        return [(r, w.get(0, 0)) if live is None or live[f] else None for r, w, f in zip(reach, after, first)]

    def branching(block_of, live):
        width = max(block_of, default=0) + 1
        out = []
        for c, f in enumerate(first):
            if live is not None and not live[f]:
                out.append(None)
                continue
            own = block_of[f]
            sig = {a * width + block_of[t] for _u, a, t in visible[c]}
            for d in exits[c]:
                b = block_of[first[d]]
                if b == own:
                    sig |= out[d]
                else:
                    sig.add(b)  # a silent exit: code 0 * width + b
            out.append(frozenset(sig))
        return out

    def quasi_strong(block_of, live):
        width = max(block_of, default=0) + 1
        key = block_of if kind == "qs-branching" else [0] * len(of)
        after = closure_moves(block_of, live, key, lambda a, t: 1 << (a * width + block_of[t]))
        out = []
        for s, row in enumerate(moves):
            if live is None or live[s]:
                sig = after[of[s]].get(key[s], 0)
                for a, t in row:
                    if not a:
                        sig |= 1 << block_of[t]
                out.append(sig)
            else:
                out.append(None)
        return out

    if kind in PAIR_KINDS:
        return quasi_strong
    per_scc = weak if kind == "weak" else branching

    def signatures(block_of, live):
        ids = _index_groups(per_scc(block_of, live))
        return [ids[c] for c in of]

    return signatures


def pair_gfp(lts: Lts, kind: str, seed_pairs) -> Partition:
    """Largest kind-bisimulation within the seed, an equivalence: the seed's
    classes, split by the divergence flag and refined by kind signatures.
    `iterations` counts the refinement rounds."""
    if lts.truncated:
        raise TruncatedInput("pair relations need a complete graph")
    least = list(range(lts.num_states()))  # the least member of each state's seed class
    for pair in seed_pairs:
        i, j = sorted(pair)
        least[j] = min(least[j], i)
    return _refine(lts, kind, _index_groups(list(zip(least, lts.diverges))))


def relation(lts: Lts, kind: str) -> Partition:
    """The equivalence of any of the five kinds, memoised on the graph. A
    pair kind's relation lies within its transfer style's partition kind, so
    `pair_gfp` refines the weak or branching classes."""
    if kind not in PAIR_KINDS:
        return compute_partition(lts, kind)
    key = (kind, "relation")
    rel = lts.partitions.get(key)
    if rel is None:
        base = "weak" if kind == "quasi-strong" else "branching"
        rel = lts.partitions[key] = pair_gfp(lts, kind, compute_partition(lts, base).pairs)
    return rel


# ---------------------------------------------------------------------------
# Refutation: ranked attacker game and trace extraction
#
# A challenge is an attacker move (side, action, derivative). A defender
# answer is a tuple of continuation pairs; the attacker then picks one of
# them. This uniformly covers the intermediate-state condition of the
# branching styles, whose answers expose both (challenger, mid) and
# (derivative, target).


def _respond(kind: str, closures: SilentClosures, defn: int, action: int):
    """The transfer clause of each kind: defn's responses to a challenge by
    action, whichever side challenged, and whether a silent closure they read
    was cut short. States are graph states or game state ids and actions are
    action ids, tau 0, stepped by `closures.step`.

    A response is a (mid, target) pair. Mid None stands for the answer with
    the single continuation (derivative, target); otherwise for the
    branching-style answer whose continuations are (challenger, mid), rolled
    back, and (derivative, target).
    """
    step = closures.step
    # the quasi-strong styles match a silent move with exactly one silent step
    if kind == "strong" or (not action and kind in PAIR_KINDS):
        return tuple((None, t) for a, t in step(defn) if a == action), False
    if kind == "weak" and action:
        moves, complete = closures.weak_moves(defn, lambda a: a == action)
        return tuple((None, t) for _a, t in moves), not complete
    pres, complete = closures[defn].states()
    if kind == "weak":
        out = tuple((None, t) for t in pres)
    elif kind == "quasi-strong":
        targets = dict.fromkeys(t for pre in pres for a, t in step(pre) if a == action)
        out = tuple((None, t) for t in targets)
    elif kind in ("branching", "qs-branching"):
        out = ((None, defn),) if not action else ()
        out += tuple((pre, t) for pre in pres for a, t in step(pre) if a == action)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return out, not complete


def _answer(response, chal, action, deriv):
    """The continuations a response offers to chal -action-> deriv, as
    ((challenger, defender), rolled back) pairs."""
    mid, t = response
    if mid is None:
        return (((deriv, t), False),)
    return (((chal, mid), True), ((deriv, t), False))


class _Game:
    """The move protocol of every attacker search, over any hashable states
    and actions: graph states and action ids in trace extraction
    (`_RankSearch`), game state ids and action ids in the first-order bounded
    game, terms and `Action`s in the higher-order context game.

    A game is built over its silent closures, whose `step(p)` lists p's
    (action, derivative) moves in (action, derivative) order. Its moves are
    `respond(defn, action)`, the defender's responses to an action,
    whichever side challenged, and whether a silent closure they read was
    cut short; `answer(response, chal, action, deriv)`, the continuations a
    response offers to chal -action-> deriv, as ((challenger, defender),
    label) pairs in the order the attacker tries them; and
    `challenge_order`, the sort key of a challenge (side, action,
    derivative) by action, then side. The defaults are the first-order
    moves over action ids, with `_respond` for the game's `kind`. Responses
    are memoised per (defender, action), challenges per position, and
    `safe` across deepening budgets. Positions are oriented (left, right).

    The memo tables hold references, not copies: equal response elements
    are one object per game, each state's challenges on each side are built
    once and shared by every position that holds the state, and `safe` and
    the challenge memo share each position's key.
    """

    answer = staticmethod(_answer)
    challenge_order = staticmethod(itemgetter(1, 0))  # action ids follow sort-key order

    def __init__(self, closures: SilentClosures):
        self.closures, self.step = closures, closures.step
        self.safe = {}  # position -> a budget within which it has no refutation
        self._responses = {}
        self._elements = {}  # each response element, to itself
        self._challenges = {}
        self._sides = {"left": {}, "right": {}}  # side -> state -> its challenges on that side
        self.positions = self.memo_hits = self.closures_cut = 0

    def respond(self, defn, action):
        return _respond(self.kind, self.closures, defn, action)

    def responses(self, defn, action):
        key = (defn, action)
        out = self._responses.get(key)
        if out is None:
            out, cut = self.respond(defn, action)
            self.closures_cut += cut
            shared = self._elements.setdefault
            out = self._responses[key] = tuple([shared(e, e) for e in out])
        return out

    def _side(self, side, state):
        """state's challenges on side, (side, action, derivative) in step order."""
        table = self._sides[side]
        out = table.get(state)
        if out is None:
            out = table[state] = tuple([(side, a, d) for a, d in self.step(state)])
        return out

    def challenges(self, pos):
        """Attacker moves (side, action, derivative) at the position (l, r), in
        (action, side, derivative) order."""
        out = self._challenges.get(pos)
        if out is None:
            l, r = pos
            # step lists moves in (action, derivative) order; the sort is stable
            moves = self._side("left", l) + self._side("right", r)
            out = self._challenges[pos] = tuple(sorted(moves, key=self.challenge_order))
        return out

    def attack(self, l, r, budget):
        """Refutation steps from (l, r) within budget, or None. Each step is
        (side, action, continuation, label); the last has no continuation: the
        defender cannot answer it.

        The result depends on (l, r, budget) only: `safe` records only true
        facts, and no refutation within a budget means none within less.
        Continuations with equal sides or a `safe` budget are settled in
        place, and counted as the recursive call would count them.
        """
        if l == r or budget <= 0:
            return None
        safe, pos = self.safe, (l, r)
        # every position is safe within budget 0; entered on the first visit,
        # pos is the key that `safe` and the challenge memo share
        if safe.setdefault(pos, 0) >= budget:
            self.memo_hits += 1
            return None
        self.positions += 1
        for side, action, deriv in self.challenges(pos):
            chal, defn = (l, r) if side == "left" else (r, l)
            responses = self.responses(defn, action)
            if not responses:
                return [(side, action, None, None)]
            if budget == 1:  # no continuation is refutable within budget 0
                continue
            # every answer must offer a refutable continuation
            per_answer = []
            for response in responses:
                for cont, label in self.answer(response, chal, action, deriv):
                    if side == "right":
                        cont = cont[::-1]
                    if cont[0] == cont[1]:
                        continue
                    if safe.get(cont, -1) >= budget - 1:
                        self.memo_hits += 1
                        continue
                    tail = self.attack(cont[0], cont[1], budget - 1)
                    if tail is not None:
                        per_answer.append((cont, label, tail))
                        break
                else:
                    break
            else:
                # show the defender answer whose refutation is longest
                cont, label, tail = max(per_answer, key=lambda c: len(c[2]))
                return [(side, action, cont, label)] + tail
        safe[pos] = budget
        return None

    def play(self, p, q, depth):
        """The refutation found first by deepening the budget up to depth, or
        None; the bounds that cut the search short when it found none; and
        the game's stats."""
        found = None
        for budget in range(1, depth + 1):
            found = self.attack(p, q, budget)
            if found is not None:
                break
        stats = {
            "depth": depth,
            "game_positions": self.positions,
            "memo_hits": self.memo_hits,
            "responses": len(self._responses),
            "closures_cut": self.closures_cut,
        }
        cut = {"closures_cut": self.closures_cut, "closure_cap": self.closures.cap} if self.closures_cut else {}
        bound = None if found else {"no_distinction_up_to": depth, "tau_bound": self.closures.bound, **cut}
        return found, bound, stats


class _RankSearch(_Game):
    """Memoised, goal-directed search for "rank(pair) <= k".

    rank is 0 on an unrelated pair whose divergence flags differ, otherwise 1 +
    min over challenges, max over answers, min over continuations; related pairs
    have none. rank <= k depends only on pairs within k moves, so a depth-bounded
    search decides it exactly. Each decided query tightens the pair's proven
    bounds lo <= rank <= hi, so no (pair, k) is searched twice. Pairs under search
    are coroutines on an explicit stack, clear of the recursion limit.

    A pair's lower bound starts at the round in which the kind's refinement
    from the divergence split first separates it (`rounds`); inf when it
    never does, as the kind relates it (see `compute_partition`). A pair of rank
    k has a challenge each of whose answers holds a continuation of rank
    below k, which round k - 1 already separates, so round k separates the
    pair. Round 0 separates exactly the pairs whose divergence flags differ,
    of rank 0. The bound is exact on most pairs, and `rank` deepens one rank
    at a time from it; on two silent chains of n states every pair separates
    in round 1, so the weak search still bounds n^2 pairs in about n^3 time.
    """

    def __init__(self, lts: Lts, kind: str):
        super().__init__(closures(lts))
        self.lts, self.kind = lts, kind
        self.rounds = compute_partition(lts, kind)
        self.lo, self.hi = {}, {}

    def respond(self, defn, action):
        """defn's responses to action in graph order: (None, t) first, then
        (mid, t) by mid, then t."""
        responses, cut = _respond(self.kind, self.closures, defn, action)
        return tuple(sorted(responses, key=lambda r: (-1 if r[0] is None else r[0], r[1]))), cut

    def _known(self, pair, k):
        """Whether the bounds settle rank(pair) <= k; None if they do not."""
        if pair not in self.lo:
            self.lo[pair] = self.rounds.separation_round(*pair)
            if not self.lo[pair]:
                self.hi[pair] = 0
        if k < self.lo[pair]:
            return False
        return True if self.hi.get(pair, math.inf) <= k else None

    def _expand(self, pair, k):
        """Decides rank(pair) <= k; yields each continuation the bounds leave open, to be sent its verdict.

        Reads the memoised responses in place, oriented as `attack` orients
        them. It tries the left side's challenges, then the right's, in move
        order: that order sets which pairs the search bounds."""
        settled, responses, below = self._known, self.responses, k - 1
        l, r = pair
        for left, chal, defn in ((True, l, r), (False, r, l)):
            for action, deriv in self.lts.moves[chal]:
                for mid, t in responses(defn, action):
                    if mid is None:
                        conts = ((deriv, t),) if left else ((t, deriv),)
                    else:
                        conts = ((chal, mid), (deriv, t)) if left else ((mid, chal), (t, deriv))
                    for c in conts:
                        known = settled(c, below)
                        if known is None:
                            known = yield c
                        if known:
                            break  # the attacker wins this answer
                    else:
                        break  # the defender escapes: try the next challenge
                else:
                    self.hi[pair] = min(k, self.hi.get(pair, math.inf))
                    return True  # every answer is won
        self.lo[pair] = k + 1
        return False

    def at_most(self, root, k) -> bool:
        result = self._known(root, k)
        if result is not None:
            return result
        stack = [(k, self._expand(root, k))]
        while stack:
            k, search = stack[-1]
            try:
                child = search.send(result)
            except StopIteration as done:
                stack.pop()
                result = done.value
                continue
            stack.append((k - 1, self._expand(child, k - 1)))
            result = None
        return result

    def rank(self, pair) -> int:
        """Exact rank, deepening from the pair's proven lower bound."""
        self._known(pair, 0)
        while self.lo[pair] < self.lts.num_states() ** 2:  # a finite rank lies below the pair count
            if self.at_most(pair, self.lo[pair]):
                return self.lo[pair]
        raise InvalidRequest("refutation rank search did not converge")


def extract_trace(lts: Lts, kind: str, start) -> AttackerTrace:
    """Minimal attacker trace refuting the start pair of a complete graph.
    Raises InvalidRequest if the kind relates the pair, and TruncatedInput on
    a truncated graph.

    Ranks are decided on demand (see `_RankSearch`), only for pairs the trace
    needs. From a pair of rank b the attacker plays the first challenge, in
    (action, side, derivative) order, all of whose answers hold a
    continuation of rank below b. The defender plays the answer whose best
    such continuation has the highest rank, and the attacker follows the
    lowest-ranked one, ties broken by pair. The trace's `rank_pairs` counts
    the pairs the search bounded. Answers come from `_respond` over the
    graph's silent closures; the strong style reads none of them. The search
    reads action ids, numbered in sort-key order, and the trace maps them to
    `lts.actions`.

    The search starts each pair's bound at the round that separates it in
    the kind's refinement from the divergence split, the memoised
    `compute_partition`. Ranks stay exact, so the trace does not depend on
    the bound.
    """
    start = tuple(start)
    game = _RankSearch(lts, kind)
    if game.rounds.relates(*start):
        raise InvalidRequest("pair is equivalent; nothing to refute")
    acts = lts.actions
    steps, reason, final = [], "divergence-mismatch", ("", None)
    pair, bound = start, game.rank(start)
    while bound > 0:
        for side, action, deriv in game.challenges(pair):
            chal, defn = pair if side == "left" else pair[::-1]
            answers = tuple(
                tuple(c if side == "left" else c[::-1] for c, _rolled in game.answer(response, chal, action, deriv))
                for response in game.responses(defn, action)
            )
            if all(any(game.at_most(c, bound - 1) for c in ans) for ans in answers):
                break
        if not answers:
            reason, final = "no-match", (side, acts[action])
            break

        # the defender plays the (first) answer that survives longest; the
        # attacker then follows the lowest-ranked continuation of that answer
        def ranked(ans, below=bound - 1):
            return sorted((game.rank(c), c) for c in ans if game.at_most(c, below))

        best_ans = max(answers, key=lambda ans: ranked(ans)[0][0])
        nxt = ranked(best_ans)[0][1]
        rolled = len(best_ans) > 1 and nxt == best_ans[0]
        steps.append(TraceStep(side, acts[action], (lts.states[nxt[0]], lts.states[nxt[1]]), rolled_back=rolled))
        pair, bound = nxt, game.rank(nxt)
    return AttackerTrace(kind, tuple(lts.states[i] for i in start), tuple(steps), reason, *final, rank_pairs=len(game.lo))


# ---------------------------------------------------------------------------
# Public checks on complete graphs


def check_pair(lts: Lts, s: int, t: int, kind: str) -> Verdict:
    """Decides a pair of a complete graph under any of the five kinds: the
    kind's relation as witness, or a minimal attacker trace. Raises
    TruncatedInput on a truncated graph."""
    rel = relation(lts, kind)
    stats = {"states": lts.num_states(), "iterations": rel.iterations}
    if rel.relates(s, t):
        return Verdict("equivalent", kind, witness=rel, stats=stats)
    trace = extract_trace(lts, kind, (s, t))
    stats["rank_pairs"] = trace.rank_pairs
    return Verdict("inequivalent", kind, trace=trace, stats=stats)


class TauClassification(Record):
    """Per-tau-edge labels plus the per-state stabilization distance k.

    An edge is state-preserving iff its endpoints share a weak block; k is the
    least number of tau steps to a state whose entire tau-closure stays in one
    weak block (finite on complete finite graphs; None encodes unbounded).
    """

    _fields = ("edge_labels", "k")

    def __init__(self, edge_labels: dict, k: tuple):
        self.edge_labels = edge_labels  # (src, dst) -> 'state-preserving' | 'state-changing'
        self.k = k

    def to_json(self) -> dict:
        return {
            "edges": [
                {"src": s, "dst": t, "label": lab}
                for (s, t), lab in sorted(self.edge_labels.items())
            ],
            "k": list(self.k),
        }


def classify_tau(lts: Lts) -> TauClassification:
    """The classification of a complete graph, read off its weak partition."""
    if lts.truncated:
        raise TruncatedInput("tau classification needs a complete graph")
    weak = compute_partition(lts, "weak")
    labels = {}
    for s, row in enumerate(lts.moves):
        for a, t in row:
            if not a:
                labels[(s, t)] = "state-preserving" if weak.relates(s, t) else "state-changing"
    # a state is stable when all it reaches silently shares its weak block;
    # an SCC's members share one, so an SCC is stable when its exits are
    # stable and share its block
    block_of = weak.block_of
    sccs = lts.silent_sccs()
    stable_scc = []
    for c, scc in enumerate(sccs.members):
        own = block_of[scc[0]]
        stable_scc.append(all(stable_scc[d] and block_of[sccs.members[d][0]] == own for d in sccs.exits[c]))
    n = lts.num_states()
    stable = [stable_scc[c] for c in sccs.of]
    # multi-source BFS over reversed tau edges from the stable states
    rev = [[] for _ in range(n)]
    for s, t in labels:
        rev[t].append(s)
    k = [None] * n
    frontier = [s for s in range(n) if stable[s]]
    for s in frontier:
        k[s] = 0
    d = 0
    while frontier:
        d += 1
        nxt = []
        for t in frontier:
            for s in rev[t]:
                if k[s] is None:
                    k[s] = d
                    nxt.append(s)
        frontier = nxt
    return TauClassification(labels, tuple(k))


class CoincidenceReport(Record):
    """Pairwise comparison of the five relations on one complete graph."""

    _fields = ("states", "equal_weak_qs", "equal_weak_qsb", "equal_weak_branching", "strong_in_qs", "qs_in_weak",
               "violations")

    def __init__(self, states: int, equal_weak_qs: bool, equal_weak_qsb: bool, equal_weak_branching: bool,
                 strong_in_qs: bool, qs_in_weak: bool, violations: list):
        self.states = states
        self.equal_weak_qs = equal_weak_qs
        self.equal_weak_qsb = equal_weak_qsb
        self.equal_weak_branching = equal_weak_branching
        self.strong_in_qs = strong_in_qs
        self.qs_in_weak = qs_in_weak
        self.violations = violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "states": self.states,
            "weak=quasi-strong": self.equal_weak_qs,
            "weak=qs-branching": self.equal_weak_qsb,
            "weak=branching": self.equal_weak_branching,
            "strong<=quasi-strong": self.strong_in_qs,
            "quasi-strong<=weak": self.qs_in_weak,
            "violations": self.violations,
        }


def coincidence_report(lts: Lts) -> CoincidenceReport:
    if lts.truncated:
        raise TruncatedInput("coincidence report needs a complete graph")
    rels = {k: relation(lts, k) for k in CCSM_KINDS}
    weak, qs = rels["weak"], rels["quasi-strong"]
    violations = []

    def report(name, pairs):
        violations.extend({"relation": name, "pair": list(pair)} for pair in sorted(pairs))

    for other in ("quasi-strong", "qs-branching", "branching"):
        report(f"weak vs {other}", _only_in(weak, rels[other]) + _only_in(rels[other], weak))
    strong_not_qs, qs_not_weak = _only_in(rels["strong"], qs), _only_in(qs, weak)
    report("strong not within quasi-strong", strong_not_qs)
    report("quasi-strong not within weak", qs_not_weak)
    return CoincidenceReport(
        lts.num_states(),
        weak.block_of == qs.block_of,  # blocks are numbered by first member
        weak.block_of == rels["qs-branching"].block_of,
        weak.block_of == rels["branching"].block_of,
        not strong_not_qs,
        not qs_not_weak,
        violations,
    )


def _only_in(left: Partition, right: Partition) -> list:
    """The pairs (i, j), i < j, that left relates and right does not, from
    the blocks of left that right splits."""
    other = right.block_of
    return [
        (s, t)
        for block in left.blocks
        if len({other[u] for u in block}) > 1
        for i, s in enumerate(block)
        for t in block[i + 1 :]
        if other[s] != other[t]
    ]


# ---------------------------------------------------------------------------
# Bounded on-the-fly games
#
# For graphs that truncate, equivalence is semi-decided: a refutation found
# within the depth bound is sound; finding none is `unknown`, up to the depth
# and tau_bound, and the closure cap where a closure was cut. Defender weak
# moves explore at most tau_bound silent steps on each side of the answer.


class _OnTheFly(_Game):
    """The first-order game between two roots, over the part-id states that
    `union_lts` explores, read through one `semantics._States` table: it
    numbers each state on first sight, memoises its moves in term order and
    turns a term into its id (`state`) and an id back into its term
    (`term`). A position is a pair of ids and an action is a `parts.actions`
    id, tau 0. The transfer clauses `_respond` and `_answer` read through the
    one lazy silent-closure helper, `semantics.SilentClosures`, which trace
    extraction uses over graph states."""

    def __init__(self, kind, tau_bound, roots):
        # the table's step and order hold no reference to the game: a
        # finished game's `safe`, response and challenge tables are freed at
        # once, not by the cyclic collector
        self.states = states = _States(roots)
        self.state, self.term = states.state, states.__getitem__
        super().__init__(SilentClosures(states.step, tau_bound, 4096, 0, states.order))
        self.kind = kind


def _game_tau_bound(depth: int, tau_bound) -> int:
    """A game's silent-step bound: tau_bound, by default max(depth, 4).
    Raises ValueError on a depth below 1 or a tau_bound below 0."""
    if depth < 1 or (tau_bound is not None and tau_bound < 0):
        raise ValueError(f"game depth must be at least 1 and tau bound at least 0; got {depth} and {tau_bound}")
    return max(depth, 4) if tau_bound is None else tau_bound


def bounded_game(p: Term, q: Term, kind: str, depth: int, tau_bound: int = None) -> Verdict:
    """Semi-decide a pair by a depth-bounded game over interned part-id states.

    A returned refutation is a concrete attacker strategy and is sound as long
    as tau_bound covers the defender's silent moves. Without one, two roots
    of one state are equivalent, as every kind is reflexive; other pairs are
    unknown, the bound naming what cut the search short.
    """
    if kind not in CCSM_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    tau_bound = _game_tau_bound(depth, tau_bound)
    p, q = canonicalize(p), canonicalize(q)
    game = _OnTheFly(kind, tau_bound, (p, q))
    found, bound, stats = game.play(game.state(p), game.state(q), depth)
    if found is None:
        outcome, bound = ("equivalent", None) if p == q else ("unknown", bound)
        return Verdict(outcome, kind, bound_report=bound, stats=stats)
    *moves, (final_side, final_action, _, _) = found
    term, acts = game.term, game.states.parts.actions
    steps = tuple(TraceStep(side, acts[a], (term(l), term(r)), rolled) for side, a, (l, r), rolled in moves)
    trace = AttackerTrace(kind, (p, q), steps, "no-match", final_side, acts[final_action])
    return Verdict("inequivalent", kind, trace=trace, stats=stats)


# ---------------------------------------------------------------------------
# Orchestration: exact when the graph completes, bounded otherwise


def decide(p: Term, q: Term, kind: str, bounds: Bounds = Bounds(), game_depth: int = 6, tau_bound: int = None) -> Verdict:
    """Full decision pipeline for one first-order equivalence."""
    tau_bound = _game_tau_bound(game_depth, tau_bound)
    if kind == "sc":
        eq = sc_equal(p, q)
        return Verdict("equivalent" if eq else "inequivalent", "sc", stats={})
    if kind not in CCSM_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    lts = union_lts([p, q], bounds)
    s, t = lts.initials[0], lts.initials[-1]
    stats = {"states": lts.num_states()}
    if not lts.truncated:
        return check_pair(lts, s, t, kind)
    # truncated: every kind is reflexive, and otherwise sound refutations only
    if s == t:
        return Verdict("equivalent", kind, stats=stats)
    if {lts.diverges[s], lts.diverges[t]} == {semantics.DIV_YES, semantics.DIV_NO}:
        trace = AttackerTrace(kind, (lts.states[s], lts.states[t]), (), "divergence-mismatch")
        return Verdict("inequivalent", kind, trace=trace, stats=stats)
    verdict = bounded_game(p, q, kind, game_depth, tau_bound)
    verdict.stats.update(stats)
    return verdict
