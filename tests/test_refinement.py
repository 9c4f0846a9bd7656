"""The refinement core against a frozen reference.

The reference below is the earlier per-state implementation, kept verbatim
apart from its names: reachability by one breadth-first search per state,
divergence flags and closures read off those sets, weak signatures read off
the closures, branching signatures from a search per state, and stability in
`classify_tau` from the closures. The SCC-ordered versions in
`pcalc.semantics` and `pcalc.equivalence` must give the same flags,
partitions (block numbering and round counts included) and classifications,
and the lazy silent closures the same closures.

A second, per-state reference gives the quasi-strong and qs-branching rounds,
so that all five kinds are compared on graphs whose rounds leave every block
split to singletons, drain their live states (those in blocks of at least two
members) round by round, or never leave a singleton block.

A third reference keeps the signature builders as they were before every
signature coded its moves as a * width + b: every kind's refinement must go
through the same rounds, block numbering and split record with them.
"""

import gc
import random
import sys
import tracemalloc
from collections import Counter, deque

import pytest

from pcalc import equivalence, evidence
from pcalc.equivalence import (
    CCSM_KINDS,
    PAIR_KINDS,
    PARTITION_KINDS,
    _refine,
    classify_tau,
    coincidence_report,
    compute_partition,
    relation,
)
from oracles import random_graph_lts
from pcalc.genterms import random_ccsm, random_stabilizing
from pcalc.semantics import (
    DIV_NO,
    DIV_UNKNOWN,
    DIV_YES,
    TAU,
    Action,
    Bounds,
    Lts,
    build_lts,
    closures,
    union_lts,
)
from pcalc.syntax import NIL, InputPrefix, Nil, Par, canonicalize, parse

# ---------------------------------------------------------------------------
# Reference implementation (verbatim)


def components(p) -> Counter:
    """Multiset of parallel components of a canonical term."""
    return Counter(() if isinstance(p, Nil) else p.parts if isinstance(p, Par) else (p,))


def _tau_adjacency(lts: Lts):
    return [[t for a, t in lts.succ(s) if a.is_tau] for s in range(lts.num_states())]


def _tau_reach_sets(lts: Lts):
    """Reflexive tau-reachability set per state."""
    adj = _tau_adjacency(lts)
    n = lts.num_states()
    reach = []
    for s in range(n):
        seen = {s}
        queue = deque((s,))
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        reach.append(frozenset(seen))
    return reach


def old_divergence_flags(lts: Lts):
    n = lts.num_states()
    adj = _tau_adjacency(lts)
    reach = _tau_reach_sets(lts)
    on_cycle = set()
    for s in range(n):
        for t in adj[s]:
            if t == s or s in reach[t]:
                on_cycle.add(s)
                break
    yes_roots = set(on_cycle)
    if lts.truncated:
        comp = [components(p) for p in lts.states]
        for u in range(n):
            cu = comp[u]
            for v in reach[u]:
                if v == u:
                    continue
                cv = comp[v]
                if sum(cv.values()) > sum(cu.values()) and all(
                    cv[k] >= c for k, c in cu.items()
                ):
                    yes_roots.add(u)
                    break
    flags = []
    for s in range(n):
        if reach[s] & yes_roots:
            flags.append(DIV_YES)
        elif lts.truncated and reach[s] & lts.frontier:
            flags.append(DIV_UNKNOWN)
        else:
            flags.append(DIV_NO)
    return flags


def old_closures(lts: Lts):
    """(tau_reach, weak, delay) as the earlier `closures` built them."""
    n = lts.num_states()
    reach = _tau_reach_sets(lts)
    delay = [{} for _ in range(n)]
    weak = [{} for _ in range(n)]
    for s in range(n):
        dmap = {}
        for mid in reach[s]:
            for a, t in lts.succ(mid):
                if a.is_tau:
                    continue
                dmap.setdefault(a, set()).add(t)
        delay[s] = {a: frozenset(ts) for a, ts in dmap.items()}
        wmap = {TAU: frozenset(reach[s])}
        for a, ts in delay[s].items():
            targets = set()
            for t in ts:
                targets |= reach[t]
            wmap[a] = frozenset(targets)
        weak[s] = wmap
    return reach, weak, delay


class _OldClosures:
    def __init__(self, lts):
        self.tau_reach, self.weak, self.delay = old_closures(lts)


def old_compute_partition(lts: Lts, kind: str):
    """(block_of, iterations)."""
    n = lts.num_states()
    cls = _OldClosures(lts) if kind == "weak" else None
    block_of = _index_groups([(lts.diverges[s],) for s in range(n)])
    iterations = 0
    while True:
        iterations += 1
        sigs = [_signature(lts, cls, kind, block_of, s) for s in range(n)]
        new_block_of = _index_groups([(block_of[s], sigs[s]) for s in range(n)])
        if max(new_block_of, default=-1) == max(block_of, default=-1):
            return tuple(new_block_of), iterations
        block_of = new_block_of


def _index_groups(keys):
    ids = {}
    out = []
    for k in keys:
        if k not in ids:
            ids[k] = len(ids)
        out.append(ids[k])
    return out


def _signature(lts: Lts, cls, kind: str, block_of, s: int):
    if kind == "strong":
        return frozenset((a.sort_key(), block_of[t]) for a, t in lts.succ(s))
    if kind == "weak":
        sig = set()
        for a, ts in cls.weak[s].items():
            for t in ts:
                sig.add((a.sort_key(), block_of[t]))
        return frozenset(sig)
    # branching: tau-paths inside the own block, then one exit step; a tau
    # step back into the own block is not an observation.
    own = block_of[s]
    internal = {s}
    stack = [s]
    while stack:
        u = stack.pop()
        for a, t in lts.succ(u):
            if a.is_tau and block_of[t] == own and t not in internal:
                internal.add(t)
                stack.append(t)
    sig = set()
    for u in internal:
        for a, t in lts.succ(u):
            if a.is_tau and block_of[t] == own:
                continue
            sig.add((a.sort_key(), block_of[t]))
    return frozenset(sig)


def old_classify_tau(lts: Lts, weak_block_of):
    """(edge labels, k)."""

    def relates(s, t):
        return weak_block_of[s] == weak_block_of[t]

    labels = {}
    for s, a, t in lts.edges:
        if a.is_tau:
            lab = "state-preserving" if relates(s, t) else "state-changing"
            labels[(s, t)] = lab
    cls = _OldClosures(lts)
    n = lts.num_states()
    stable = [all(relates(s, t) for t in cls.tau_reach[s]) for s in range(n)]
    # multi-source BFS over reversed tau edges from the stable states
    rev = [[] for _ in range(n)]
    for s, a, t in lts.edges:
        if a.is_tau:
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
    return labels, tuple(k)


def old_strong_history(lts: Lts):
    """The divergence-blind strong rounds `distinguishing_formula` reads."""
    n = lts.num_states()
    history = [[0] * n]
    while True:
        prev = history[-1]
        sigs = [
            frozenset((a.sort_key(), prev[v]) for a, v in lts.succ(u)) for u in range(n)
        ]
        nxt = _index_groups([(prev[u], sigs[u]) for u in range(n)])
        if max(nxt) == max(prev):
            break
        history.append(nxt)
    return history


def old_pair_partition(lts: Lts, kind: str, base_block_of):
    """(block_of, iterations) of quasi-strong or qs-branching, refined per
    state from the base partition split by the divergence flag: a state's
    signature is its silent successors' blocks and its => -a-> moves, for
    qs-branching only those whose mid shares its block."""
    n = lts.num_states()
    cls = _OldClosures(lts)
    block_of = _index_groups([(base_block_of[s], lts.diverges[s]) for s in range(n)])
    iterations = 0
    while True:
        iterations += 1
        sigs = []
        for s in range(n):
            sig = {(a.sort_key(), block_of[t]) for a, t in lts.succ(s) if a.is_tau}
            for mid in cls.tau_reach[s]:
                if kind == "quasi-strong" or block_of[mid] == block_of[s]:
                    sig.update((a.sort_key(), block_of[t]) for a, t in lts.succ(mid) if not a.is_tau)
            sigs.append(frozenset(sig))
        new_block_of = _index_groups([(block_of[s], sigs[s]) for s in range(n)])
        if max(new_block_of, default=-1) == max(block_of, default=-1):
            return tuple(new_block_of), iterations
        block_of = new_block_of


# ---------------------------------------------------------------------------
# Comparisons

W4_FAMILY = "a.a.'d | a.'d | a.a.a.'d | a.'d.'d | a.a.'d.'d | !a | !'a | !d"


def _random_graphs():
    graphs = []
    for seed in range(120):
        rng = random.Random(9000 + seed)
        names = ("a", "b") if seed % 3 == 0 else ("a",)  # one name: more silent edges
        graphs.append(random_graph_lts(rng, max_states=rng.choice((8, 20, 40)), names=names))
    return graphs


def _round_partitions(part):
    """The partition after each round that changed one, and the seed's, read
    back from the split forest."""
    return [part.round_block_of(k) for k in range(part.iterations)]


def _assert_matches_reference(lts):
    assert lts.diverges == old_divergence_flags(lts)
    parts = {}
    for kind in PARTITION_KINDS:
        part = compute_partition(lts, kind)
        assert (part.block_of, part.iterations) == old_compute_partition(lts, kind), kind
        parts[kind] = part
    for kind, base in (("quasi-strong", "weak"), ("qs-branching", "branching")):
        part = relation(lts, kind)
        assert (part.block_of, part.iterations) == old_pair_partition(lts, kind, parts[base].block_of), kind
    tc = classify_tau(lts)
    assert (tc.edge_labels, tc.k) == old_classify_tau(lts, parts["weak"].block_of)
    blind = _refine(lts, "strong", [0] * lts.num_states())
    assert _round_partitions(blind) == old_strong_history(lts)


def test_refinement_matches_reference_on_random_graphs():
    graphs = _random_graphs()
    # the sample must exercise silent cycles of more than one state
    assert sum(any(len(m) > 1 for m in g.silent_sccs().members) for g in graphs) >= 20
    for lts in graphs:
        _assert_matches_reference(lts)
        reach, weak, _delay = old_closures(lts)
        cls = closures(lts)
        for s in range(lts.num_states()):
            assert cls[s].states() == (tuple(sorted(reach[s])), True)
            # closures step the int-coded moves: action ids, tau 0
            moves, complete = cls.weak_moves(s, lambda a: a != 0)
            assert complete and len(set(moves)) == len(moves)
            expected = {(a, t) for a, ts in weak[s].items() if not a.is_tau for t in ts}
            assert {(lts.actions[a], t) for a, t in moves} == expected


def test_refinement_matches_reference_on_the_w4_family():
    lts = build_lts(parse(W4_FAMILY))
    assert lts.num_states() == 322 and not lts.truncated
    _assert_matches_reference(lts)


def test_divergence_flags_match_reference_on_truncated_graphs():
    # The reference is the oracle wherever it is definite. Where it says
    # unknown, the flag is the one the term's complete graph gives, when a
    # larger bound completes it; the exact search never says unknown here.
    rng = random.Random(9500)
    truncated = settled = 0
    for i in range(150):
        term = random_stabilizing(rng) if i % 2 else random_ccsm(rng, rng.randint(2, 8))
        lts = build_lts(term, Bounds(rng.randint(3, 60), rng.randint(2, 12)))
        truncated += lts.truncated
        complete = None
        for s, (flag, ref) in enumerate(zip(lts.diverges, old_divergence_flags(lts))):
            assert flag != DIV_UNKNOWN
            if ref != DIV_UNKNOWN:
                assert flag == ref
                continue
            if complete is None:
                complete = build_lts(term, Bounds(2000, 64))
                index = {p: k for k, p in enumerate(complete.states)}
            if not complete.truncated:
                assert flag == complete.diverges[index[lts.states[s]]]
                settled += 1
    assert truncated >= 40 and settled >= 40
    # the growth pair cut off early: every state grows silently
    lts = union_lts([parse("!c.d | !'c | d"), parse("!c.d | !'c | !c")], Bounds(8, 3))
    assert lts.truncated and set(old_divergence_flags(lts)) <= {DIV_YES, DIV_UNKNOWN}
    assert lts.diverges == [DIV_YES] * lts.num_states()


# ---------------------------------------------------------------------------
# The SCC pass is iterative

N_LONG = 10**4


def _silent_graph(edges, n):
    states = [canonicalize(InputPrefix(f"s{i}", NIL)) for i in range(n)]
    edges = sorted(edges, key=lambda e: (e[0], e[1].sort_key(), e[2]))
    return Lts(states, edges, (0,), frozenset())


@pytest.mark.parametrize("shape", ["chain", "cycle"])
def test_long_silent_paths_refine_without_recursion(shape):
    assert N_LONG > sys.getrecursionlimit()
    a = Action("in", "a")
    edges = [(i, TAU, i + 1) for i in range(N_LONG - 1)]
    if shape == "cycle":
        edges.append((N_LONG - 1, TAU, 0))
    edges.append((N_LONG - 1, a, N_LONG - 1))
    lts = _silent_graph(edges, N_LONG)
    sccs = lts.silent_sccs()
    assert len(sccs.members) == (N_LONG if shape == "chain" else 1)
    assert set(lts.diverges) == {DIV_NO if shape == "chain" else DIV_YES}
    for kind in ("weak", "branching"):
        part = compute_partition(lts, kind)
        assert set(part.block_of) == {0}  # every state weakly reaches the one a-loop
    tc = classify_tau(lts)
    assert set(tc.edge_labels.values()) == {"state-preserving"} and set(tc.k) == {0}


def test_distinguishing_evidence_builds_closures_only_when_read(monkeypatch):
    built = []
    real = equivalence.closures
    monkeypatch.setattr(equivalence, "closures", lambda lts: built.append(real(lts)) or built[-1])
    lts = union_lts([parse("a.b.0"), parse("a.c.0")])
    for kind in CCSM_KINDS:
        built.clear()
        evidence.distinguishing_evidence(lts, lts.initials[0], lts.initials[-1], kind)
        assert len(built) == 1, kind  # built by the trace only, not by refinement
        assert (len(built[0]) == 0) == (kind == "strong"), kind  # no strong answer reads a closure


# ---------------------------------------------------------------------------
# Rounds sign only the states whose block can still split

# The pair-relations benchmark's terms (bench/workloads.py).
P = "a.a.'d | a.'d | a.a.a.'d | a.'d.'d | !a | !'a | !d"
P_SMALL = "a.a.'d | a.'d | a.a.a.'d | !a | !'a | !d"
P_SMALL_DROP = "a.'d | a.a.'d | a.a.a.'d | 'd | !a | !'a | !d"
# The finite-large benchmark's W2 variant (bench/workloads.py).
W2_VARIANT = "a.b.'c.d.e | 'a.'b.c.'d.'e | b.a.'d.c | 'b.'a.d.'c | 'e.e | !f | !'f"


def _live_per_round(lts, kind):
    """Per round of kind's refinement, the states in blocks of at least two
    members when the round starts."""
    if kind in PAIR_KINDS:
        base = relation(lts, "weak" if kind == "quasi-strong" else "branching").block_of
        seed = equivalence._index_groups(zip(base, lts.diverges))
    else:
        seed = equivalence._index_groups([(d,) for d in lts.diverges])
    out = []
    for block_of in _round_partitions(_refine(lts, kind, seed)):
        sizes = Counter(block_of)
        out.append(sum(sizes[b] > 1 for b in block_of))
    return out


@pytest.mark.parametrize(
    "terms, states",
    [
        (["a.'b | 'a.b | c.'c | 'd"], 54),  # every kind refines to singletons
        ([P_SMALL, P_SMALL_DROP], 42),  # the live states drain round by round
        ([P + " | !a", P], 196),  # no round has a singleton block
    ],
)
def test_live_state_rounds_match_reference(terms, states):
    lts = union_lts([parse(t) for t in terms])
    assert lts.num_states() == states and not lts.truncated
    _assert_matches_reference(lts)
    live = {kind: _live_per_round(lts, kind) for kind in CCSM_KINDS}
    if states == 54:
        assert all(counts[-1] == 0 for counts in live.values())
    elif states == 42:
        assert live["quasi-strong"] == [41, 40, 36, 26, 0]
    else:
        assert all(set(counts) == {states} for counts in live.values())


def test_weak_partition_signs_only_live_states():
    # The W2 variant refines to 2,550 singletons in 4 rounds, and only 24,
    # then 0, of its states are live in the last two. Signing every state in
    # every round peaks at about 8.8 MiB here; signing the live ones, 4.7 MiB.
    lts = build_lts(parse(W2_VARIANT), Bounds(20000, 64))
    assert lts.num_states() == 2550 and not lts.truncated
    tracemalloc.start()
    try:
        part = compute_partition(lts, "weak")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(part.block_of) + 1 == 2550 and part.iterations == 4
    assert peak < 6 * 2**20


def test_refinement_signatures_keep_the_collector_idle():
    # Signatures are ints, (int, int) pairs and frozensets of ints, not
    # (action, block) tuples, so a round allocates few objects the collector
    # tracks. Signing with tuples, refinement ran 64 collections here for
    # strong and 92 for weak.
    lts = build_lts(parse(W2_VARIANT), Bounds(20000, 64))
    for kind, bound in (("strong", 32), ("weak", 64)):
        runs = []

        def count(phase, _info):
            runs.append(phase == "start")

        gc.collect()
        gc.callbacks.append(count)
        try:
            compute_partition(lts, kind)
        finally:
            gc.callbacks.remove(count)
        assert sum(runs) <= bound, kind


def test_classify_tau_and_the_caller_share_one_weak_refinement(monkeypatch):
    refined = []
    real = equivalence._refine
    monkeypatch.setattr(equivalence, "_refine", lambda lts, kind, *rest: refined.append(kind) or real(lts, kind, *rest))
    lts = build_lts(parse(W4_FAMILY))
    classify_tau(lts)
    weak = compute_partition(lts, "weak")
    assert refined == ["weak"]
    # relation and the pair kinds' base read the same partition
    assert relation(lts, "weak") is weak
    relation(lts, "quasi-strong")
    assert refined == ["weak", "quasi-strong"]


def test_each_kind_is_refined_once_per_graph(monkeypatch):
    refined = []
    real = equivalence._refine
    monkeypatch.setattr(equivalence, "_refine", lambda lts, kind, *rest: refined.append(kind) or real(lts, kind, *rest))
    lts = union_lts([parse(P + " | !a"), parse(P)])
    qs = relation(lts, "quasi-strong")
    assert relation(lts, "quasi-strong") is qs
    report = coincidence_report(lts)
    assert report.states == 196
    assert Counter(refined) == dict.fromkeys(CCSM_KINDS, 1)


# ---------------------------------------------------------------------------
# One move code and one => -a-> pass, against the earlier signature builders

# The builders as they were before every signature coded a move to block b by
# action a as a * width + b, and before weak shared the quasi-strong kinds'
# => -a-> pass, kept verbatim apart from their names: strong signed with
# (action id, block) tuples, weak with a (reach, ((action, mask), ...)) pair
# built by its own pass, the quasi-strong kinds with a (frozenset, mask) pair.


def parent_strong_signatures(lts: Lts):
    moves = lts.moves

    def signatures(block_of, live):
        return [
            frozenset((a, block_of[t]) for a, t in row) if live is None or live[s] else None
            for s, row in enumerate(moves)
        ]

    return signatures


def parent_silent_signatures(lts: Lts, kind: str):
    """Weak, branching, quasi-strong or qs-branching signatures, built once
    per silent SCC, sinks first, from the SCC's own visible moves and the
    SCCs its silent steps exit to (`exits`), whose signatures are already
    built. A round builds them only for the live states (see `_refine`) and
    the SCCs those states read; the others sign as None.

    Under weak and branching, the members of a silent SCC share a block in
    every round: they start with one divergence flag, and as they reach the
    same states silently, a round gives them one signature. So the block of
    an SCC is that of its first member, and so is its liveness.

    - weak: the blocks reached silently, and per visible action a the blocks
      reached by =>a=>, as bitmasks over block ids. `reach` is built for
      every SCC; the per-action sets only for the SCCs a live SCC reaches
      silently.
    - branching: the moves out of the SCC's silent closure within its own
      block, as (action code, block) codes. A silent exit into the own block
      is inert: that SCC's signature is part of this one. This is the set a
      search from each member along silent steps inside its block would find.
      An inert exit of a live SCC shares its block, so it is live too: only
      the live SCCs are built.
    - quasi-strong, qs-branching (see above): per state, its silent
      successors' blocks, and the => -a-> moves its SCC shares, as bitmasks
      over the codes a * width + [t], keyed by the mid's block for
      qs-branching (by 0 otherwise), kept for the keys that live states read
      at or above it.
    """
    sccs = lts.silent_sccs()
    moves = lts.moves
    visible = [[(u, a, t) for u in scc for a, t in moves[u] if a] for scc in sccs.members]
    first = [scc[0] for scc in sccs.members]
    of, exits = sccs.of, sccs.exits

    def weak(block_of, live):
        reach = []
        for c, f in enumerate(first):
            r = 1 << block_of[f]
            for d in exits[c]:
                r |= reach[d]
            reach.append(r)
        if live is not None:
            need = [live[f] for f in first]  # per SCC: whether a live SCC reaches it silently
            for c in reversed(range(len(first))):
                if need[c]:
                    for d in exits[c]:
                        need[d] = True
        after = []  # per SCC: visible action code -> bitmask of the =>a=> blocks
        for c in range(len(first)):
            if live is not None and not need[c]:
                after.append(None)
                continue
            w = {}
            for d in exits[c]:
                for a, m in after[d].items():
                    w[a] = w.get(a, 0) | m
            for _u, a, t in visible[c]:
                w[a] = w.get(a, 0) | reach[of[t]]
            after.append(w)
        return [
            (r, tuple(sorted(w.items()))) if live is None or live[f] else None
            for r, w, f in zip(reach, after, first)
        ]

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
        key = block_of if kind == "qs-branching" else [0] * len(of)
        width = max(block_of, default=0) + 1
        need = [0] * len(first)  # per SCC: bitmask of the keys live states read at or above it
        for c in reversed(range(len(first))):
            for u in sccs.members[c]:
                if live is None or live[u]:
                    need[c] |= 1 << key[u]
            for d in exits[c]:
                need[d] |= need[c]
        after = []  # per SCC: key -> bitmask of the => -a-> codes
        for c in range(len(first)):
            w = {}
            if need[c]:
                for d in exits[c]:
                    for b, m in after[d].items():
                        if need[c] >> b & 1:
                            w[b] = w.get(b, 0) | m
                for u, a, t in visible[c]:
                    w[key[u]] = w.get(key[u], 0) | 1 << (a * width + block_of[t])
            after.append(w)
        return [
            (frozenset(block_of[t] for a, t in row if not a), after[of[s]].get(key[s], 0))
            if live is None or live[s]
            else None
            for s, row in enumerate(moves)
        ]

    if kind in PAIR_KINDS:
        return quasi_strong
    per_scc = weak if kind == "weak" else branching

    def signatures(block_of, live):
        ids = _index_groups(per_scc(block_of, live))
        return [ids[c] for c in of]

    return signatures


W1 = "a.b.'c.d | 'a.'b.c.'d | b.a.'d | 'b.'a.d | c.'c | !e | !'e"
W1_TAU = "a.b.'c.d | a.'d | c.'c | 'a.d | 'a.'b.c.'d | !e | !'e"


def _bench_graphs():
    """The complete graphs of the benchmark's terms (bench/workloads.py)."""
    return [
        union_lts([parse(W1), parse(W1_TAU)]),
        build_lts(parse(W2_VARIANT), Bounds(20000, 64)),
        build_lts(parse(W4_FAMILY)),
        union_lts([parse(P + " | !a"), parse(P)]),
        union_lts([parse(P_SMALL), parse(P_SMALL_DROP)]),
    ]


def _rounds(lts, kind, seed):
    """Every partition of kind's refinement from seed, as its rounds made
    them, which the split forest must give back; its rounds; its split record."""
    made, real = [list(seed)], equivalence._next_round

    def recording(block_of, signatures):
        out = real(block_of, signatures)
        made.append(out[0])
        return out

    with pytest.MonkeyPatch.context() as m:
        m.setattr(equivalence, "_next_round", recording)
        part = _refine(lts, kind, list(seed))
    history = made[: part.iterations]  # the seed, and each round that split a block
    assert _round_partitions(part) == history
    return history, part.block_of, part.iterations, part.splits


def test_refinement_rounds_match_the_earlier_builders(monkeypatch):
    graphs = _bench_graphs()
    graphs += [random_graph_lts(random.Random(9700 + i), max_states=40, names=("a",) if i % 2 else ("a", "b")) for i in range(40)]
    compared = 0
    for lts in graphs:
        seeds = {kind: _index_groups([(d,) for d in lts.diverges]) for kind in CCSM_KINDS}
        for kind, base in (("quasi-strong", "weak"), ("qs-branching", "branching")):
            seeds[kind + " from " + base] = _index_groups(zip(relation(lts, base).block_of, lts.diverges))
        for name, seed in seeds.items():
            kind = name.split(" from ")[0]
            new = _rounds(lts, kind, seed)
            with monkeypatch.context() as m:
                m.setattr(equivalence, "_strong_signatures", parent_strong_signatures)
                m.setattr(equivalence, "_silent_signatures", parent_silent_signatures)
                old = _rounds(lts, kind, seed)
            assert new == old, name
            compared += 1
    assert compared == 45 * 7
