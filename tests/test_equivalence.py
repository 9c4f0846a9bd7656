import pytest

from oracles import naive_relation, random_graph_lts
from pcalc.equivalence import (
    CCSM_KINDS,
    PARTITION_KINDS,
    CoincidenceReport,
    TruncatedInput,
    _only_in,
    bounded_game,
    check_pair,
    classify_tau,
    coincidence_report,
    compute_partition,
    decide,
    relation,
)
from pcalc.genterms import rng_from_env
from pcalc.semantics import Action, Bounds, Lts, build_lts, union_lts
from pcalc.syntax import NIL, InputPrefix, canonicalize, parse


def graph(n, labeled_edges, initials=(0,)):
    """Hand-built complete graph over placeholder states."""
    states = [canonicalize(InputPrefix(f"s{i}", NIL)) for i in range(n)]
    edges = sorted(
        ((s, Action.from_label(lab), t) for s, lab, t in labeled_edges),
        key=lambda e: (e[0], e[1].sort_key(), e[2]),
    )
    return Lts(states, edges, tuple(initials), frozenset())


def test_partition_rejects_truncated():
    lts = build_lts(parse("!c.d | !'c | d"), Bounds(8, 3))
    with pytest.raises(TruncatedInput):
        compute_partition(lts, "strong")


def test_strong_partition_examples():
    lts = union_lts([parse("a.0 | a.0"), parse("a.a.0")], Bounds(100, 100))
    part = compute_partition(lts, "strong")
    assert part.relates(lts.initials[0], lts.initials[1])

    lts2 = union_lts([parse("!a.0"), parse("!a.0 | !a.0")], Bounds(100, 100))
    part2 = compute_partition(lts2, "strong")
    assert part2.relates(lts2.initials[0], lts2.initials[1])


def test_weak_partition_separates_revealed_action():
    # finite analogue of the replicated-unfolding remark: the extra c is
    # observable, so the unfolded state sits in a different weak block
    lts = build_lts(parse("c | !a | !'a"), Bounds(50, 50))
    part = compute_partition(lts, "weak")
    folded = lts.states.index(canonicalize(parse("!a | !'a")))
    assert not part.relates(lts.initial, folded)


def test_partitions_are_divergence_sensitive():
    lts = build_lts(parse("a.(!b | !'b) | a.0"), Bounds(100, 100))
    for kind in PARTITION_KINDS:
        part = compute_partition(lts, kind)
        for block in part.blocks:
            flags = {lts.diverges[s] for s in block}
            assert len(flags) == 1


def test_a_graph_built_from_edges_carries_its_divergence_flags():
    # The constructor computes the flags, so no caller can leave them empty:
    # an empty list made every partition one empty block, and relates() fail.
    states = [canonicalize(InputPrefix(f"s{i}", NIL)) for i in range(3)]
    tau, a = Action.from_label("tau"), Action.from_label("a")
    lts = Lts(states, [(0, tau, 1), (1, tau, 0), (2, a, 2)], (0,), frozenset())
    assert lts.diverges == ["yes", "yes", "no"]
    for kind in CCSM_KINDS:
        part = relation(lts, kind)
        assert part.relates(0, 1) and not part.relates(1, 2), kind


def test_check_pair_reflexive():
    lts = build_lts(parse("a.b | 'a"), Bounds(50, 50))
    for kind in CCSM_KINDS:
        verdict = check_pair(lts, 0, 0, kind)
        assert verdict.outcome == "equivalent"


@pytest.mark.parametrize("kind", CCSM_KINDS)
def test_check_pair_is_the_verdict_decide_gives(kind):
    # weakly and branching bisimilar, but not quasi-strong: both outcomes
    p, q = parse("a.'d | !a | !'a | !d"), parse("'d | !a | !'a | !d")
    lts = union_lts([p, q])
    assert check_pair(lts, lts.initials[0], lts.initials[-1], kind).to_json() == decide(p, q, kind).to_json()


def test_check_pair_delay_matching_with_state_preserving_lead():
    # an immediate d versus one state-preserving silent step before d
    lts = graph(
        5,
        [
            (0, "d", 1),
            (0, "tau", 0),
            (2, "tau", 3),
            (3, "d", 4),
            (3, "tau", 3),
        ],
    )
    verdict = check_pair(lts, 0, 2, "quasi-strong")
    assert verdict.outcome == "equivalent"
    weak = compute_partition(lts, "weak")
    assert weak.relates(2, 3), "the leading silent step must be state-preserving"


def test_check_pair_refutes_missing_input():
    lts = union_lts([parse("a.'b | 'a"), parse("'b")], Bounds(50, 50))
    verdict = check_pair(lts, lts.initials[0], lts.initials[1], "quasi-strong")
    assert verdict.outcome == "inequivalent"
    assert len(verdict.trace) == 1
    # both the silent step and the a are one-step refutations; ties break
    # by action order, so the reported challenge is the silent one
    assert verdict.trace.final_action.label() == "tau"


def test_classify_tau_self_loop_state_preserving():
    lts = build_lts(parse("!a | !'a"), Bounds(20, 20))
    tc = classify_tau(lts)
    assert set(tc.edge_labels.values()) == {"state-preserving"}
    assert tc.k == (0,)


def test_classify_tau_state_changing_handshake():
    lts = build_lts(parse("a.'b | 'a"), Bounds(50, 50))
    tc = classify_tau(lts)
    assert set(tc.edge_labels.values()) == {"state-changing"}
    assert tc.k[lts.initial] == 1


def test_classify_tau_silent_free():
    lts = build_lts(parse("a.b | c"), Bounds(50, 50))
    tc = classify_tau(lts)
    assert tc.edge_labels == {}
    assert all(k == 0 for k in tc.k)


def test_state_preserving_step_can_precede_state_changing_one():
    # Absorbing the redundant 'b into !b keeps the weak class, yet the a
    # handshake that follows changes it. So "no state-preserving silent step
    # precedes a state-changing one" is false in restriction-free CCS.
    lts = build_lts(parse("a | 'b | 'c | !b | !'a | !'b"), Bounds(200, 64))
    assert not lts.truncated
    s0 = lts.initial
    s2 = lts.states.index(canonicalize(parse("a | 'c | !b | !'a | !'b")))
    s6 = lts.states.index(canonicalize(parse("'c | !b | !'a | !'b")))
    tc = classify_tau(lts)
    assert tc.edge_labels[(s0, s2)] == "state-preserving"
    assert tc.edge_labels[(s2, s6)] == "state-changing"
    # the independent oracle draws the same line
    weak = naive_relation(lts, "weak")
    assert (min(s0, s2), max(s0, s2)) in weak
    assert (min(s2, s6), max(s2, s6)) not in weak


def test_coincidence_on_silent_free_graph():
    lts = build_lts(parse("a.b | c.d"), Bounds(100, 100))
    report = coincidence_report(lts)
    assert report.ok
    assert relation(lts, "strong").pairs == relation(lts, "weak").pairs


def test_coincidence_on_divergent_pair():
    lts = union_lts([parse("b | !a | !'a"), parse("'c | !a | !'a")], Bounds(100, 100))
    report = coincidence_report(lts)
    assert report.ok
    for kind in CCSM_KINDS:
        assert not relation(lts, kind).relates(*lts.initials)


# An 18-state pair, equivalent under all five kinds, and each verdict's JSON
# as first captured: the witness of a partition kind lists its blocks, that
# of a pair kind every related pair (i, j) with i <= j, identity included.
WITNESS_PAIR = ("a.'d | a.a.'d | !a | !'a | !d | !a", "a.'d | a.a.'d | !a | !'a | !d")
WEAK_BLOCKS = [[0, 1, 2, 3, 4, 5, 7, 9, 11, 13], [6, 8, 10, 12, 14, 15], [16, 17]]
STRONG_PAIRS = [
    [0, 0], [0, 1], [1, 1], [2, 2], [2, 4], [3, 3], [3, 5], [4, 4], [5, 5],
    [6, 6], [6, 8], [7, 7], [7, 9], [8, 8], [9, 9], [10, 10], [10, 12], [11, 11],
    [11, 13], [12, 12], [13, 13], [14, 14], [14, 15], [15, 15], [16, 16], [16, 17], [17, 17],
]
WITNESSES = {
    "strong": ({"blocks": [[0, 1], [2, 4], [3, 5], [6, 8], [7, 9], [10, 12], [11, 13], [14, 15], [16, 17]]}, 6),
    "weak": ({"blocks": WEAK_BLOCKS}, 3),
    "branching": ({"blocks": WEAK_BLOCKS}, 3),
    "quasi-strong": ({"pairs": STRONG_PAIRS}, 4),
    "qs-branching": ({"pairs": STRONG_PAIRS}, 5),
}


@pytest.mark.parametrize("kind", CCSM_KINDS)
def test_equivalent_verdict_json_is_pinned(kind):
    witness, iterations = WITNESSES[kind]
    verdict = decide(parse(WITNESS_PAIR[0]), parse(WITNESS_PAIR[1]), kind)
    assert verdict.to_json() == {
        "outcome": "equivalent",
        "kind": kind,
        "witness": {"kind": kind, **witness},
        "stats": {"states": 18, "iterations": iterations},
    }


def test_coincidence_report_json_is_pinned_on_the_smallest_weak_qs_split():
    lts = union_lts([parse("a | 'a | !d | !'d"), parse("a | d.'a | !d | !'d")])
    assert lts.initials == (0, 1) and lts.num_states() == 6
    assert coincidence_report(lts).to_json() == {
        "states": 6,
        "weak=quasi-strong": False,
        "weak=qs-branching": False,
        "weak=branching": True,
        "strong<=quasi-strong": True,
        "quasi-strong<=weak": True,
        "violations": [
            {"relation": "weak vs quasi-strong", "pair": [0, 1]},
            {"relation": "weak vs qs-branching", "pair": [0, 1]},
        ],
    }
    # the independent oracle draws the same split
    for kind in ("weak", "branching"):
        assert (0, 1) in naive_relation(lts, kind), kind
    for kind in ("quasi-strong", "qs-branching"):
        assert (0, 1) not in naive_relation(lts, kind), kind


def _pair_set_coincidence_report(lts):
    """coincidence_report as it was when it compared the five relations as
    pair sets, kept verbatim."""
    pairs = {k: relation(lts, k).pairs for k in CCSM_KINDS}
    weak, qs = pairs["weak"], pairs["quasi-strong"]
    violations = []

    def diff(name, left, right):
        for pair in sorted(left ^ right):
            violations.append({"relation": name, "pair": list(pair)})

    for other in ("quasi-strong", "qs-branching", "branching"):
        diff(f"weak vs {other}", weak, pairs[other])
    for pair in sorted(pairs["strong"] - qs):
        violations.append({"relation": "strong not within quasi-strong", "pair": list(pair)})
    for pair in sorted(qs - weak):
        violations.append({"relation": "quasi-strong not within weak", "pair": list(pair)})
    return CoincidenceReport(
        lts.num_states(),
        weak == qs,
        weak == pairs["qs-branching"],
        weak == pairs["branching"],
        pairs["strong"] <= qs,
        qs <= weak,
        violations,
    )


def test_coincidence_report_matches_the_pair_set_version_on_random_graphs():
    rng = rng_from_env(34)
    split = 0
    for _ in range(150):
        lts = random_graph_lts(rng, max_states=rng.choice((6, 12, 24)))
        report = coincidence_report(lts)
        assert report.to_json() == _pair_set_coincidence_report(lts).to_json()
        split += not report.equal_weak_qs
        # the inclusions hold on every graph, so the pairs one relation
        # relates and another does not are checked in both directions here
        rels = [relation(lts, kind) for kind in CCSM_KINDS]
        for left in rels:
            for right in rels:
                assert sorted(_only_in(left, right)) == sorted(left.pairs - right.pairs), (left.kind, right.kind)
    assert split >= 20


def test_relation_checkers_match_oracle_on_random_graphs():
    rng = rng_from_env(31)
    for _ in range(25):
        lts = random_graph_lts(rng, max_states=16)
        for kind in CCSM_KINDS:
            assert relation(lts, kind).pairs == naive_relation(lts, kind), kind


def test_inclusions_hold_on_arbitrary_graphs():
    rng = rng_from_env(32)
    for _ in range(25):
        lts = random_graph_lts(rng, max_states=14)
        strong, qs, weak, qsb, branching = (
            relation(lts, kind).pairs for kind in ("strong", "quasi-strong", "weak", "qs-branching", "branching")
        )
        assert strong <= qs <= weak
        assert qsb <= branching <= weak


def test_decide_exact_on_finite_inputs():
    assert decide(parse("!a.0"), parse("!a.0 | !a.0"), "strong").outcome == "equivalent"
    assert decide(parse("a.0"), parse("'a.0"), "strong").outcome == "inequivalent"
    assert decide(parse("a | b"), parse("b | a"), "sc").outcome == "equivalent"
    assert decide(parse("!a.0"), parse("!a.0 | !a.0"), "sc").outcome == "inequivalent"


def test_decide_builds_closures_once_and_only_when_read(monkeypatch):
    import pcalc.equivalence as equivalence

    built = []
    real = equivalence.closures
    monkeypatch.setattr(equivalence, "closures", lambda lts: built.append(real(lts)) or built[-1])
    differ, same = (parse("a.b.0"), parse("a.c.0")), (parse("a | b"), parse("b | a"))
    for kind in CCSM_KINDS:
        built.clear()
        decide(*same, kind)
        assert built == [], kind  # refinement reads no closures
        decide(*differ, kind)
        assert len(built) == 1, kind  # built once, for the trace
        assert (len(built[0]) == 0) == (kind == "strong"), kind  # no strong answer reads a closure


def test_decide_bounded_refutation_and_bound_report():
    p1, p2 = parse("!c.d | !'c | d"), parse("!c.d | !'c | !c")
    strong = decide(p1, p2, "strong", game_depth=6)
    assert strong.outcome == "inequivalent"
    assert len(strong.trace) == 1
    assert strong.trace.final_action.label() == "d"
    weak = decide(p1, p2, "weak", game_depth=4)
    assert weak.outcome == "unknown"
    assert weak.bound_report["no_distinction_up_to"] == 4


def test_decide_divergence_mismatch_on_truncated_pair():
    verdict = decide(parse("!(a | 'a)"), parse("a.0"), "weak", Bounds(40, 8))
    assert verdict.outcome == "inequivalent"
    assert verdict.trace.reason == "divergence-mismatch"


def test_bounded_game_identity_never_distinguishes():
    # two roots of one state are equivalent, as decide says on a truncated graph
    p = parse("!c.d | !'c | d")
    verdict = bounded_game(p, p, "weak", depth=5)
    assert verdict.outcome == "equivalent" and verdict.trace is None and verdict.bound_report is None
    assert decide(p, p, "weak", Bounds(8, 3)).outcome == "equivalent"


def test_quasi_strong_is_strictly_finer_than_weak_on_guarded_redundancy():
    # A guarded 'd that the context can silently unguard, next to
    # replications absorbing a, 'a and d. Weak (and branching) equate the
    # two sides: the unguarding and the delivery just take two silent steps.
    # The single-silent-step clause of the quasi-strong styles cannot keep
    # pace: answering the right side's 'd-consuming step in one silent step
    # leaves the left either still guarded or already spent. So the
    # quasi-strong relations are strictly finer than weak here, and the
    # per-state stabilization distances of weakly equivalent states differ.
    p = parse("a.'d | !a | !'a | !d")
    q = parse("'d | !a | !'a | !d")
    lts = union_lts([p, q], Bounds(100, 50))
    assert not lts.truncated and lts.num_states() == 3
    s, t = lts.initials
    key = (min(s, t), max(s, t))

    assert relation(lts, "weak").relates(s, t) and relation(lts, "branching").relates(s, t)
    assert not relation(lts, "quasi-strong").relates(s, t) and not relation(lts, "qs-branching").relates(s, t)

    # the independent oracle sees the same split
    assert key in naive_relation(lts, "weak")
    assert key not in naive_relation(lts, "quasi-strong")

    report = coincidence_report(lts)
    assert not report.equal_weak_qs and not report.equal_weak_qsb
    assert report.equal_weak_branching
    assert report.qs_in_weak and report.strong_in_qs

    # the mechanism: equal weak class, different stabilization distance
    tc = classify_tau(lts)
    assert tc.k[s] != tc.k[t]

    verdict = check_pair(lts, s, t, "quasi-strong")
    assert verdict.outcome == "inequivalent"
    from pcalc.evidence import replay_trace

    assert replay_trace(verdict.trace, tau_bound=8)


def test_bounded_game_agrees_with_exact_checkers_on_finite_pairs():
    # on complete graphs the semi-decision procedure must never contradict
    # the exact one: equivalent pairs survive any depth, inequivalent pairs
    # fall once the depth covers the refutation rank
    rng = rng_from_env(33)
    from pcalc.genterms import random_ccsm

    checked = 0
    while checked < 60:
        p = canonicalize(random_ccsm(rng, rng.randint(1, 7), allow_repl=False, names=("a", "b")))
        q = canonicalize(random_ccsm(rng, rng.randint(1, 7), allow_repl=False, names=("a", "b")))
        lts = union_lts([p, q], Bounds(400, 64))
        if lts.truncated:
            continue
        for kind in ("strong", "weak", "quasi-strong"):
            exact = decide(p, q, kind, Bounds(400, 64))
            game = bounded_game(p, q, kind, depth=8, tau_bound=64)
            if exact.outcome == "equivalent":
                assert game.outcome == "unknown", kind
            elif exact.trace.reason == "no-match" and len(exact.trace) <= 8:
                assert game.outcome == "inequivalent", kind
        checked += 1


def test_weak_equivalence_via_certificateless_exact_path():
    # delay matching inside the exact checker: one leading silent step
    lts = graph(
        5,
        [
            (0, "d", 1),
            (0, "tau", 0),
            (2, "tau", 3),
            (3, "d", 4),
            (3, "tau", 3),
        ],
    )
    weak = compute_partition(lts, "weak")
    assert weak.relates(0, 2)
    qs = check_pair(lts, 0, 2, "qs-branching")
    assert qs.outcome == "equivalent"
