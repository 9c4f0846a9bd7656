"""State exploration over part-id multisets against a frozen reference.

The reference below is the earlier implementation, kept verbatim but for
the `Lts` constructor, which now computes the divergence flags: `step`
builds, sorts and interns a whole parallel term for every move, and
`union_lts` steps every state through it. `pcalc.semantics` must give the
same graphs (states, numbering, edges, truncation, divergence flags) and the
same single steps.
"""

import gc
import random
import tracemalloc

from pcalc import semantics, syntax
from oracles import finite_state_corpus, random_graph_lts
from pcalc.genterms import random_ccsm, random_stabilizing
from pcalc.hocore import TestFamilies, ho_step
from pcalc.semantics import TAU, Action, Bounds, Lts, cache_info, clear_caches
from pcalc.syntax import InputPrefix, Nil, OutputPrefix, Par, Repl, Term, canonical_par, canonicalize, parse, term_key

# ---------------------------------------------------------------------------
# Reference implementation (verbatim)

_step_cache: dict = {}


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
    moves = set()
    if isinstance(p, Nil):
        pass
    elif isinstance(p, InputPrefix):
        moves.add((Action("in", p.name), p.cont))
    elif isinstance(p, OutputPrefix):
        moves.add((Action("out", p.name), p.cont))
    elif isinstance(p, Repl):
        inner = step(p.body)
        for act, t in inner:
            moves.add((act, _par_of([t, p])))
        for act_in, t_in in inner:
            if act_in.kind != "in":
                continue
            for act_out, t_out in inner:
                if act_out.kind == "out" and act_out.name == act_in.name:
                    moves.add((TAU, _par_of([t_in, t_out, p])))
    elif isinstance(p, Par):
        # Equal parts step alike, so each distinct part steps once, at its
        # first position; a second position lets two copies communicate.
        parts = p.parts
        where = {}
        for i, q in enumerate(parts):
            where.setdefault(q, []).append(i)
        visible = {}  # action -> [(positions of the part, derivative)]
        for q, at in where.items():
            for act, t in step(q):
                moves.add((act, _par_replace(parts, at[0], t)))
                if not act.is_tau:
                    visible.setdefault(act, []).append((at, t))
        for act, ins in visible.items():
            if act.kind != "in":
                continue
            for at_o, t_o in visible.get(act.complement(), ()):
                for at_i, t_i in ins:
                    if at_i is not at_o:
                        moves.add((TAU, _par_replace2(parts, at_i[0], t_i, at_o[0], t_o)))
                    elif len(at_i) > 1:
                        moves.add((TAU, _par_replace2(parts, at_i[0], t_i, at_i[1], t_o)))
    else:
        raise TypeError(f"not a first-order term: {p!r}")
    return tuple(sorted(moves, key=lambda m: (m[0].sort_key(), term_key(m[1]))))


def _par_of(parts) -> Term:
    return canonical_par(parts)


def _par_replace(parts, i, t) -> Term:
    return _par_of([t if k == i else q for k, q in enumerate(parts)])


def _par_replace2(parts, i, t_i, j, t_j) -> Term:
    repl = list(parts)
    repl[i] = t_i
    repl[j] = t_j
    return _par_of(repl)


def union_lts(terms, bounds: Bounds = Bounds()) -> Lts:
    """Breadth-first exploration from one or more roots over one state space.

    Deterministic: states are numbered in BFS discovery order with term-order
    tie-breaking among one state's newly discovered successors. A state is
    either fully expanded or left on the frontier untouched.
    """
    states: list = []
    index: dict = {}
    depth: list = []
    initials = []
    for t in terms:
        c = canonicalize(t)
        if c not in index:
            index[c] = len(states)
            states.append(c)
            depth.append(0)
        initials.append(index[c])
    edges = []
    frontier = set()
    pos = 0
    while pos < len(states):
        s = states[pos]
        if depth[pos] >= bounds.max_depth:
            frontier.add(pos)
            pos += 1
            continue
        moves = step(s)
        new_targets = []
        seen_new = set()
        for _a, t in moves:
            if t not in index and t not in seen_new:
                seen_new.add(t)
                new_targets.append(t)
        if len(states) + len(new_targets) > bounds.max_states:
            frontier.add(pos)
            pos += 1
            continue
        for t in sorted(new_targets, key=term_key):
            index[t] = len(states)
            states.append(t)
            depth.append(depth[pos] + 1)
        for a, t in moves:
            edges.append((pos, a, index[t]))
        pos += 1
    edges.sort(key=lambda e: (e[0], e[1].sort_key(), e[2]))
    return Lts(states, edges, tuple(initials), frozenset(frontier))


# ---------------------------------------------------------------------------
# Comparisons

# Fixed here rather than read from PCALC_SEED: the comparison is exact, so
# any seed would do, and a fixed set keeps the cost of the test fixed.
SEED = 9

# Replicated handshakes: a replica talks to itself, to another replica and to
# a plain part, and two copies of one part talk to each other.
SELF_COMMUNICATION = (
    "!(a | 'a)",
    "!(a.'b | 'a) | !b",
    "!(a | 'a.b) | !'b | a",
    "a | a | 'a | 'a.a",
    "!(a.(b | 'b) | 'a.'a) | a",
    "!a.'a | !'a.a | a.a",
    "!(a | 'a) | !(a | 'a)",
    "!(a.'b | 'a) | !(a.'b | 'a) | b",
)


def assert_same_graph(roots, bounds):
    new = semantics.union_lts(roots, bounds)
    ref = union_lts(roots, bounds)
    assert new.to_json() == ref.to_json()
    for s in new.states:
        assert semantics.step(s) == step(s)


def test_exploration_matches_reference_on_the_corpus():
    corpus = finite_state_corpus(random.Random(SEED), 60)
    for term in corpus:
        assert_same_graph([term], Bounds(200, 64))
    # roots that share states: one term with its own derivatives, and two
    # corpus terms side by side
    for p, q in zip(corpus, corpus[1:]):
        later = [t for _a, t in step(p)][-1:]
        assert_same_graph([p, *later, p, q], Bounds(400, 64))


def test_exploration_matches_reference_on_random_terms():
    rng = random.Random(SEED)
    for _ in range(100):
        roll = rng.random()
        if roll < 0.4:
            term = random_ccsm(rng, rng.randint(1, 10))
        elif roll < 0.7:
            term = random_stabilizing(rng)
        else:
            term = Par((random_stabilizing(rng), random_ccsm(rng, rng.randint(1, 6))))
        for bounds in (Bounds(200, 64), Bounds(rng.randint(1, 12), 64), Bounds(200, rng.randint(1, 3))):
            assert_same_graph([term], bounds)


def test_exploration_matches_reference_on_replicated_handshakes():
    terms = [parse(text) for text in SELF_COMMUNICATION]
    for term in terms:
        for bounds in (Bounds(500, 5), Bounds(40, 64), Bounds(1, 64), Bounds(500, 1)):
            assert_same_graph([term], bounds)
    assert_same_graph(terms, Bounds(300, 3))


def test_exploration_builds_one_parallel_term_per_state(monkeypatch):
    # the benchmark's W1 pair over channel names no other test uses, so no
    # memo table holds its steps already
    left = "wa.wb.'wc.wd | 'wa.'wb.wc.'wd | wb.wa.'wd | 'wb.'wa.wd | wc.'wc | !we | !'we"
    right = "wa.wb.'wc.wd | wa.'wd | wc.'wc | 'wa.wd | 'wa.'wb.wc.'wd | !we | !'we"
    roots = [canonicalize(parse(left)), canonicalize(parse(right))]
    built = [0]
    init = Par.__init__

    def counting(self, parts):
        built[0] += 1
        init(self, parts)

    monkeypatch.setattr(Par, "__init__", counting)
    lts = semantics.union_lts(roots, Bounds(20000, 64))
    assert (lts.num_states(), len(lts.edges)) == (1083, 8098)
    assert built[0] == 0  # states are explored as part-id tuples, and no state is read yet
    assert lts.states[500] is lts.states[500] and built[0] <= 1
    for _ in range(2):
        terms = list(lts.states)
    assert built[0] <= lts.num_states()
    assert terms[lts.initials[0]] is roots[0] and lts.states.index(terms[700]) == 700
    # a truncated graph checks its growth witnesses without state terms too:
    # W3 (ROADMAP), cut at 20,000 states
    w3 = parse("a.'b | b.'c | c.'a | 'a | 'b | !d.'e | e | 'd | 'd | a.b.c | 'c.'a")
    interned = cache_info()["intern"]
    lts = semantics.build_lts(w3, Bounds(20000, 64))
    assert lts.truncated and lts.num_states() == 20000
    assert cache_info()["intern"] - interned < 100


def test_prefix_chains_canonicalize_each_suffix_once(monkeypatch):
    n = 300
    calls = [0]
    canon = syntax._canon

    def counting(*args):
        calls[0] += 1
        return canon(*args)

    monkeypatch.setattr(syntax, "_canon", counting)
    # a channel name no other test uses, so no memo table holds these terms
    long, short = parse("chainx." * n + "0"), parse("chainx." * (n - 1) + "0")
    lts = semantics.union_lts([long, short], Bounds(n + 1, n + 1))
    assert lts.num_states() == n + 1 and lts.initials == (0, 1)
    assert calls[0] < 3 * n


def test_clear_caches_empties_the_live_tables_in_place():
    def live():
        return (syntax._intern, syntax._canon_cache, syntax._binders, syntax._shift_memo, semantics._step_cache)

    tables = live()
    term = parse("a.'b | 'a.b | !(c | 'c) | c")
    ho_term = parse("!('d<0>.0) | a(X).X", dialect="hoccsm")
    before = semantics.union_lts([term], Bounds(100, 8))
    moves = semantics.step(term)
    ho_moves = ho_step(ho_term, TestFamilies.default(ho_term, ho_term))
    assert all(cache_info().values())
    # a representative is found in `_intern`; the canonical cache maps only the others
    assert not any(t is rep for t, rep in syntax._canon_cache.items())
    clear_caches()
    assert cache_info() == {"intern": 0, "canon": 0, "binders": 0, "shift": 0, "step": 0}
    assert all(a is b for a, b in zip(live(), tables))
    assert semantics.step(term) == moves
    assert ho_step(ho_term, TestFamilies.default(ho_term, ho_term)) == ho_moves
    after = semantics.union_lts([term], Bounds(100, 8))
    assert after.to_json() == before.to_json()
    assert cache_info()["step"] == len(semantics._step_cache) > 0
    assert cache_info()["shift"] == len(syntax._shift_memo) > 0


# ---------------------------------------------------------------------------
# The int-coded move table

# The benchmark's terms (bench/workloads.py): W1 and its tau variant, the W2
# variant, the W4-family graph, the pair-relations pairs and the growth pair.
W1 = "a.b.'c.d | 'a.'b.c.'d | b.a.'d | 'b.'a.d | c.'c | !e | !'e"
W1_TAU = "a.b.'c.d | a.'d | c.'c | 'a.d | 'a.'b.c.'d | !e | !'e"
W2_VARIANT = "a.b.'c.d.e | 'a.'b.c.'d.'e | b.a.'d.c | 'b.'a.d.'c | 'e.e | !f | !'f"
W4F = "a.a.'d | a.'d | a.a.a.'d | a.'d.'d | a.a.'d.'d | !a | !'a | !d"
P = "a.a.'d | a.'d | a.a.a.'d | a.'d.'d | !a | !'a | !d"
BENCH_GRAPHS = (
    ([W1, W1_TAU], Bounds()),
    ([W2_VARIANT], Bounds(20000, 64)),
    ([W4F], Bounds()),
    ([P + " | !a", P], Bounds()),
    (["a.a.'d | a.'d | a.a.a.'d | !a | !'a | !d", "a.'d | a.a.'d | a.a.a.'d | 'd | !a | !'a | !d"], Bounds()),
    (["!c.d | !'c | d", "!c.d | !'c | !c"], Bounds()),
)


def test_exploration_matches_reference_on_the_benchmark_graphs():
    for texts, bounds in BENCH_GRAPHS:
        assert_same_graph([parse(t) for t in texts], bounds)
    # the growth pair cut short: every state grows silently, and the search
    # below the frontier, not a cycle, says so for most of them
    growth = [parse(t) for t in BENCH_GRAPHS[-1][0]]
    for bounds, states in ((Bounds(7, 64), 7), (Bounds(200, 3), 9)):
        assert_same_graph(growth, bounds)
        assert semantics.union_lts(growth, bounds).diverges == ["yes"] * states


def from_edges(lts):
    """The same graph, built from its edge list."""
    return Lts(lts.states, lts.edges, lts.initials, lts.frontier)


def assert_same_views(coded, listed):
    assert coded.edges == listed.edges
    by_src = [[] for _ in coded.states]
    for s, a, t in listed.edges:
        by_src[s].append((a, t))
    for s, row in enumerate(by_src):
        assert coded.succ(s) == row == listed.succ(s)
        assert coded.tau_succ(s) == [t for a, t in row if a.is_tau] == listed.tau_succ(s)
    assert coded.silent_sccs() == listed.silent_sccs()
    assert coded.to_json() == listed.to_json()
    assert coded.to_dot() == listed.to_dot()


def test_explored_and_edge_list_graphs_agree():
    truncated = 0
    for texts, bounds in BENCH_GRAPHS:
        lts = semantics.union_lts([parse(t) for t in texts], bounds)
        truncated += lts.truncated
        assert_same_views(lts, from_edges(lts))
    assert truncated == 1  # the growth pair
    rng = random.Random(SEED)
    for _ in range(40):
        lts = semantics.build_lts(random_ccsm(rng, rng.randint(1, 8)), Bounds(rng.randint(1, 120), 64))
        assert_same_views(lts, from_edges(lts))
    for _ in range(40):
        listed = random_graph_lts(rng, max_states=rng.choice((8, 30)))
        coded = Lts(listed.states, listed.moves, listed.initials, frozenset(), actions=listed.actions)
        assert_same_views(coded, listed)


def test_graph_footprint_on_the_w2_variant():
    # The graph stores its moves once, as int pairs, which the collector
    # stops tracking, and its states as part-id tuples, building no term
    # until one is read: 0.02 tracked objects per state, 1.99 MiB retained.
    # Building every state's term on discovery tracks 2.0 objects per state
    # and retains 2.45-2.87 MiB; keeping (src, Action, dst) edges and
    # (Action, dst) successor lists besides tracked 16.2 per state. The term
    # is the W2 variant over channel names no other test uses, so that no
    # earlier test has interned its states' terms.
    term = parse("ga.gb.'gc.gd.ge | 'ga.'gb.gc.'gd.'ge | gb.ga.'gd.gc | 'gb.'ga.gd.'gc | 'ge.ge | !gf | !'gf")
    semantics.build_lts(term, Bounds(1, 64))  # steps every part, and explores the root alone
    gc.collect()
    tracked = len(gc.get_objects())
    tracemalloc.start()
    try:
        lts = semantics.build_lts(term, Bounds(20000, 64))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    gc.collect()
    per_state = (len(gc.get_objects()) - tracked) / lts.num_states()
    assert lts.num_states() == 2550 and not lts.truncated
    assert per_state < 1
    assert retained < 2.2 * 2**20  # 1.99 MiB measured, and a 10% margin
    assert not lts.states.ids  # the explored graph's table keeps no tuple -> id dict
