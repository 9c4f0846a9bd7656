import json

import pytest
from test_refinement import W1, W1_TAU, W4_FAMILY, _random_graphs, old_strong_history

from pcalc import equivalence
from pcalc.equivalence import CCSM_KINDS, AttackerTrace, InvalidRequest, TraceStep, TruncatedInput, bounded_game, decide
from pcalc.evidence import (
    AndF,
    Certificate,
    DiamondF,
    NotF,
    ReplayError,
    TrueF,
    check_certificate,
    distinguishing_evidence,
    distinguishing_formula,
    formula_str,
    replay_trace,
    satisfies,
)
from pcalc.semantics import Action, Bounds, build_lts, step, union_lts
from pcalc.syntax import Par, canonicalize, parse


def replace(obj, **changes):
    return type(obj)(**{f: changes.get(f, getattr(obj, f)) for f in obj._fields})


def tau_derivatives(text):
    bang = canonicalize(parse(text))
    return bang, [t for a, t in step(bang) if a.is_tau]


def test_certificate_rep_invariance_parallel_context():
    bang, derivs = tau_derivatives("!(a.'b | 'a)")
    assert derivs
    for deriv in derivs:
        cert = Certificate(((bang, deriv),), "upto-context", 128)
        result = check_certificate(cert)
        assert result.outcome == "certified"
        shapes = {o.to_json()["context"] for o in result.obligations}
        assert any(ctx.endswith("| [.]") for ctx in shapes), shapes

def test_certificate_output_is_pinned():
    # the full result for the first silent derivative, answers included: each
    # obligation is discharged by the first weak answer, in breadth-first
    # order, that leaves a related residue
    bang, derivs = tau_derivatives("!(a.'b | 'a)")
    result = check_certificate(Certificate(((bang, derivs[0]),), "upto-context", 128))
    pair = ["!(a.'b | 'a)", "a.'b | 'a | 'b | !(a.'b | 'a)"]
    obligations = [
        ("left", "tau", "a.'b | 'a | 'b | !(a.'b | 'a)", "a.'b | 'a | 'b | !(a.'b | 'a)", "[.]", "equal"),
        ("left", "tau", "'b | !(a.'b | 'a)", "a.'b | 'a | 'b | 'b | !(a.'b | 'a)", "'b | [.]", "pair"),
        ("left", "a", "'a | 'b | !(a.'b | 'a)", "a.'b | 'a | 'a | 'b | 'b | !(a.'b | 'a)", "'a | 'b | [.]", "pair"),
        ("left", "'a", "a.'b | !(a.'b | 'a)", "a.'b | a.'b | 'a | 'b | !(a.'b | 'a)", "a.'b | [.]", "pair"),
        ("right", "tau", "a.'b | a.'b | 'a | 'a | 'b | 'b | !(a.'b | 'a)", "a.'b | 'a | 'b | !(a.'b | 'a)", "a.'b | 'a | 'b | [.]", "pair"),
        ("right", "tau", "a.'b | 'a | 'b | 'b | !(a.'b | 'a)", "'b | !(a.'b | 'a)", "'b | [.]", "pair"),
        ("right", "tau", "'b | 'b | !(a.'b | 'a)", "'b | 'b | !(a.'b | 'a)", "[.]", "equal"),
        ("right", "a", "a.'b | 'a | 'a | 'b | 'b | !(a.'b | 'a)", "'a | 'b | !(a.'b | 'a)", "'a | 'b | [.]", "pair"),
        ("right", "a", "'a | 'b | 'b | !(a.'b | 'a)", "'a | 'b | 'b | !(a.'b | 'a)", "[.]", "equal"),
        ("right", "'a", "a.'b | a.'b | 'a | 'b | !(a.'b | 'a)", "a.'b | !(a.'b | 'a)", "a.'b | [.]", "pair"),
        ("right", "'a", "a.'b | 'b | !(a.'b | 'a)", "a.'b | 'b | !(a.'b | 'a)", "[.]", "equal"),
        ("right", "'b", "a.'b | 'a | !(a.'b | 'a)", "a.'b | 'a | !(a.'b | 'a)", "[.]", "equal"),
    ]
    keys = ("direction", "action", "derivative", "answer", "context", "via")
    assert result.to_json() == {
        "outcome": "certified",
        "obligations": [{"pair": pair, **dict(zip(keys, row))} for row in obligations],
    }


def test_certificate_refuted_on_disjoint_alphabets():
    cert = Certificate(((parse("a.0"), parse("'a.0")),), "upto-context", 64)
    result = check_certificate(cert)
    assert result.outcome == "refuted"
    assert result.failure["reason"] == "no-answer"
    assert result.failure["action"] == "a"


def test_certificate_identity_pair():
    bang = canonicalize(parse("!(a | b)"))
    result = check_certificate(Certificate(((bang, bang),), "upto-context", 64))
    assert result.outcome == "certified"
    assert all(o.via == "equal" for o in result.obligations)
    assert all(o.context is None for o in result.obligations)


def test_certificate_plain_discipline_needs_direct_membership():
    bang, derivs = tau_derivatives("!(a.'b | 'a)")
    grower = [d for d in derivs if len(d.parts) > 2][0]
    plain = check_certificate(Certificate(((bang, grower),), "plain", 64))
    assert plain.outcome in ("refuted", "budget-exhausted")
    upto = check_certificate(Certificate(((bang, grower),), "upto-context", 64))
    assert upto.outcome == "certified"


def test_certificate_divergence_mismatch():
    cert = Certificate(((parse("!(a | 'a)"), parse("a.0")),), "upto-context", 64)
    result = check_certificate(cert)
    assert result.outcome == "refuted"
    assert result.failure["reason"] == "divergence-mismatch"


def test_certificate_budget_exhausted_on_growth_pair():
    # the two-sided growth pair has no finite parallel-context certificate
    # that this discipline can discharge; the checker reports the budget
    # honestly instead of guessing
    cert = Certificate(
        ((parse("!c.d | !'c | d"), parse("!c.d | !'c | !c")),),
        "upto-context",
        48,
    )
    result = check_certificate(cert)
    assert result.outcome == "budget-exhausted"


def test_certificate_known_equivalence_discharge():
    # the residues a | a and a.a are weakly equivalent, yet no pair of the
    # relation holds them, so the certificate is refuted
    p = parse("e.(a | a)")
    q = parse("e.(a.a)")
    refused = check_certificate(Certificate(((p, q),), "upto-context", 64))
    assert refused.outcome == "refuted"


def test_certificate_json_roundtrip(tmp_path):
    cert = Certificate(((parse("!a.0"), parse("!a.0")),), "upto-context", 32)
    blob = cert.to_json()
    again = Certificate.from_json(json.loads(json.dumps(blob)))
    assert again.pairs == cert.pairs
    assert again.discipline == cert.discipline
    assert again.closure_budget == cert.closure_budget


def test_certificate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        Certificate(((parse("a"), parse("a")),), "upto-everything", 8)
    with pytest.raises(ValueError):
        Certificate(((parse("a"), parse("a")),), "plain", 0)


def test_distinguishing_evidence_strong_formula():
    lts = union_lts([parse("a.'b | 'a"), parse("'b")], Bounds(64, 64))
    s, t = lts.initials
    evidence = distinguishing_evidence(lts, s, t, "strong")
    assert evidence.trace.reason in ("no-match", "divergence-mismatch")
    assert evidence.formula is not None
    assert satisfies(lts, s, evidence.formula)
    assert not satisfies(lts, t, evidence.formula)


def test_distinguishing_evidence_rejects_equivalent_pairs():
    lts = union_lts([parse("a | b"), parse("b | a")], Bounds(32, 32))
    with pytest.raises(InvalidRequest):
        distinguishing_evidence(lts, lts.initials[0], lts.initials[1], "strong")


def test_formula_only_divergence_separates():
    # same action structure modulo divergence: no modal formula exists
    lts = union_lts([parse("!a | !'a"), parse("!a | !'a | b.0")], Bounds(64, 16))
    s, t = lts.initials
    assert distinguishing_formula(lts, s, t) is not None
    lts2 = build_lts(parse("!a | !'a"), Bounds(16, 16))
    assert distinguishing_formula(lts2, 0, 0) is None


def old_distinguishing_formula(lts, history, s, t):
    """The formula builder as it read the strong rounds from a list of every
    round's partition, `history` being `old_strong_history(lts)`."""
    if history[-1][s] == history[-1][t]:
        return None

    def rank(u, v):
        for i, blk in enumerate(history):
            if blk[u] != blk[v]:
                return i
        raise AssertionError("states not separated")

    def build(u, v):
        r = rank(u, v)
        blk = history[r - 1]
        su = {(a, blk[x]) for a, x in lts.succ(u)}
        sv = {(a, blk[x]) for a, x in lts.succ(v)}
        only_u = sorted(su - sv, key=lambda o: (o[0].sort_key(), o[1]))
        if only_u:
            action, target_blk = only_u[0]
            u2 = min(x for a, x in lts.succ(u) if a == action and blk[x] == target_blk)
            subs = tuple(build(u2, v2) for a, v2 in lts.succ(v) if a == action)
            return DiamondF(action, AndF(subs) if subs else TrueF())
        return NotF(build(v, u))

    return build(s, t)


def test_formulas_match_the_history_builder(monkeypatch):
    # One refinement per graph serves every pair of it: the divergence-blind
    # strong refinement is memoised on the graph.
    real, refined = equivalence._refine, []

    def counted(lts, kind, seed):
        refined.append(lts)
        return real(lts, kind, seed)

    monkeypatch.setattr(equivalence, "_refine", counted)
    w4 = build_lts(parse(W4_FAMILY))
    # every ordered pair of 40 random graphs; on the 322-state W4 family
    # graph, whose pairs take about 1 ms each in each builder, 6 rows of 322
    graphs = [(lts, range(lts.num_states())) for lts in _random_graphs()[::3]]
    graphs.append((w4, range(0, w4.num_states(), 54)))
    compared = separated = 0
    for lts, rows in graphs:
        history = old_strong_history(lts)
        for s in rows:
            for t in range(lts.num_states()):
                new = distinguishing_formula(lts, s, t)
                old = old_distinguishing_formula(lts, history, s, t)
                assert (new and formula_str(new)) == (old and formula_str(old)), (s, t)
                compared += 1
                separated += new is not None
    assert compared == 13000 and separated == 12094
    assert refined == [lts for lts, _rows in graphs]


@pytest.mark.parametrize(
    "p, q, text",
    [
        (W1, W1_TAU, "<b>tt"),
        ("a.(b | c)", "a.b.c | a.c.b", "<a>(<b>tt & <c>tt)"),
        ("a | a.b", "a.b | a.b", "<a>(~<b>tt)"),
    ],
    ids=["W1", "diamonds", "negation"],
)
def test_formula_texts_are_pinned(p, q, text):
    lts = union_lts([parse(p), parse(q)])
    assert formula_str(distinguishing_formula(lts, lts.initials[0], lts.initials[-1])) == text


@pytest.mark.parametrize("kind", CCSM_KINDS)
def test_distinguishing_evidence_needs_a_complete_graph(kind):
    lts = union_lts([parse(W1), parse(W1_TAU)], Bounds(50, 64))
    assert lts.truncated
    with pytest.raises(TruncatedInput):
        distinguishing_evidence(lts, lts.initials[0], lts.initials[-1], kind)


def test_formula_satisfaction_basics():
    lts = build_lts(parse("a.b | c"), Bounds(32, 32))
    dia = DiamondF(Action("in", "a"), TrueF())
    assert satisfies(lts, lts.initial, dia)
    assert not satisfies(lts, lts.initial, DiamondF(Action("in", "z"), TrueF()))
    assert satisfies(lts, lts.initial, AndF((dia, NotF(DiamondF(Action("out", "a"), TrueF())))))
    assert "tt" in formula_str(dia)


def test_weak_refutation_trace_replays():
    verdict = decide(parse("!a.c"), parse("c | !a.c"), "weak", game_depth=6)
    assert verdict.outcome == "inequivalent"
    assert replay_trace(verdict.trace)


def test_strong_refutation_trace_replays():
    verdict = decide(parse("!c.d | !'c | d"), parse("!c.d | !'c | !c"), "strong", game_depth=6)
    assert replay_trace(verdict.trace)


def test_replay_rejects_forged_trace():
    verdict = decide(parse("!a.c"), parse("c | !a.c"), "weak", game_depth=6)
    trace = verdict.trace
    forged = type(trace)(
        trace.kind, trace.start, trace.steps, "no-match", trace.final_side, Action("in", "zz")
    )
    with pytest.raises(ReplayError):
        replay_trace(forged)

def test_replay_rejects_forged_defender_answers():
    # every kind refutes a.b.c against a.b.d in two steps; a defender that
    # stays put on the first one is not answering its a
    for kind in CCSM_KINDS:
        trace = decide(parse("a.b.c"), parse("a.b.d"), kind).trace
        first = trace.steps[0]
        assert first.side == "left" and replay_trace(trace)
        forged = TraceStep(first.side, first.action, (first.after[0], trace.start[1]), first.rolled_back)
        with pytest.raises(ReplayError):
            replay_trace(replace(trace, steps=(forged,) + trace.steps[1:]))
    # a rolled-back step whose intermediate state the defender cannot reach silently
    for kind in ("branching", "qs-branching"):
        trace = bounded_game(parse("a | 'a | b"), parse("'a | a | b.'b"), kind, 3).trace
        (rolled,) = trace.steps
        assert rolled.rolled_back and replay_trace(trace)
        forged = TraceStep(rolled.side, rolled.action, (rolled.after[0], canonicalize(parse("a | 'a | 'b"))), True)
        with pytest.raises(ReplayError):
            replay_trace(replace(trace, steps=(forged,)))


def _strong_trace():
    """The strong refutation of a.b | 'd by a.c | 'd: the left plays a, then
    b, which the defender's c | 'd cannot answer."""
    trace = decide(parse("a.b | 'd"), parse("a.c | 'd"), "strong").trace
    (first,) = trace.steps
    assert first.side == "left" and trace.final_action.label() == "b" and replay_trace(trace)
    return trace


def test_replay_rejects_a_challenger_step_that_is_not_a_transition():
    trace = _strong_trace()
    (first,) = trace.steps
    moved = replace(first, after=(canonicalize(parse("c | 'd")), first.after[1]))
    with pytest.raises(ReplayError, match="challenger has no a step"):
        replay_trace(replace(trace, steps=(moved,)))


def test_replay_rejects_a_forged_mid_trace_action():
    # replay maps each step's action to the game's action id: an action no
    # part of the start offers (zz), and one the game knows but the
    # challenger lacks at that step (b), fail replay, rolled back or not
    trace = _strong_trace()
    (first,) = trace.steps
    for action in (Action("in", "zz"), Action("in", "b")):
        for rolled in (False, True):
            forged = replace(first, action=action, rolled_back=rolled)
            with pytest.raises(ReplayError, match=f"challenger has no {action.label()} step"):
                replay_trace(replace(trace, steps=(forged,)))
    # a rolled-back continuation does not name the challenger's derivative,
    # yet the challenger must still have the step: here b has no a, though
    # the defender's answer a -a-> 0 offers the rolled-back pair (b, a)
    b, a = canonicalize(parse("b")), canonicalize(parse("a"))
    step_a = TraceStep("left", Action("in", "a"), (b, a), rolled_back=True)
    forged = AttackerTrace("branching", (b, a), (step_a,), "no-match", "left", Action("in", "b"))
    with pytest.raises(ReplayError, match="challenger has no a step"):
        replay_trace(forged)


def test_replay_rejects_a_part_the_start_never_reaches():
    # replay maps each term to a state over the parts its start reaches; a
    # term holding any other part fails replay, on either side of a step
    # that is rolled back or not
    def with_zz(term):
        return canonicalize(Par((term, parse("zz"))))

    strong = _strong_trace()
    rolled = bounded_game(parse("a | 'a | b"), parse("'a | a | b.'b"), "branching", 3).trace
    for trace in (strong, rolled):
        (first,) = trace.steps
        assert first.rolled_back == (trace is rolled) and first.side == "left"
        for i in (0, 1):  # challenger, defender
            after = tuple(with_zz(t) if j == i else t for j, t in enumerate(first.after))
            with pytest.raises(ReplayError):
                replay_trace(replace(trace, steps=(replace(first, after=after),)))


def test_replay_rejects_a_final_challenge_the_defender_answers():
    trace = replace(_strong_trace(), final_action=Action.from_label("'d"))
    with pytest.raises(ReplayError, match="defender still has an answer"):
        replay_trace(trace)


def test_replay_rejects_a_terminal_pair_with_equal_divergence():
    trace = decide(parse("!(a | 'a)"), parse("a | 'a"), "weak").trace
    assert trace.reason == "divergence-mismatch" and replay_trace(trace)
    same = canonicalize(parse("a | 'a"))
    with pytest.raises(ReplayError, match="terminal pair does not mismatch on divergence"):
        replay_trace(replace(trace, start=(same, same)))


def test_a_long_silent_run_to_divergence_replays():
    # Forty a-prefixes guard a silent cycle on the left only: the complete
    # 82-state graph refutes the pair by divergence mismatch at the roots.
    # Replay and evidence confirm the mismatch on the terms, whatever the
    # closure bound, by the exact search: a graph probe of 32 silent steps
    # missed the cycle, 40 steps down, and rejected the trace.
    guard = "a." * 40
    p, q = parse(guard + "(!c | !'c) | !'a"), parse(guard + "0 | !'a")
    verdict = decide(p, q, "weak")
    assert verdict.outcome == "inequivalent" and verdict.stats["states"] == 82
    assert verdict.trace.reason == "divergence-mismatch" and not verdict.trace.steps
    assert replay_trace(verdict.trace, 8) and replay_trace(verdict.trace, 10**6)
    lts = union_lts([p, q])
    assert not lts.truncated
    evidence = distinguishing_evidence(lts, lts.initials[0], lts.initials[-1], "weak")
    assert evidence.trace == verdict.trace


def test_certificate_divergence_past_a_long_silent_run():
    # the certificate checker decides divergence on the terms too: the left
    # side's silent cycle lies forty silent steps down, the right has none
    guard = "a." * 40
    cert = Certificate(((parse(guard + "(!c | !'c) | !'a"), parse(guard + "0 | !'a")),), "upto-context", 4)
    result = check_certificate(cert)
    assert result.outcome == "refuted"
    assert result.failure["reason"] == "divergence-mismatch" and result.failure["flags"] == ["yes", "no"]


def test_exact_inequivalence_traces_replay_for_all_kinds():
    lts = union_lts([parse("a.'b | 'a"), parse("'b")], Bounds(64, 64))
    s, t = lts.initials
    for kind in ("strong", "weak", "branching", "quasi-strong", "qs-branching"):
        evidence = distinguishing_evidence(lts, s, t, kind)
        assert replay_trace(evidence.trace, tau_bound=lts.num_states())


def test_certification_is_sound_on_finite_pairs():
    # whatever certifies must land in one weak block of the union graph
    from pcalc.equivalence import compute_partition
    from pcalc.genterms import random_ccsm, rng_from_env

    rng = rng_from_env(51)
    certified = 0
    for _ in range(600):
        # a tiny alphabet makes behavioral coincidences common
        p = canonicalize(random_ccsm(rng, rng.randint(1, 6), allow_repl=False, names=("a", "b")))
        q = canonicalize(random_ccsm(rng, rng.randint(1, 6), allow_repl=False, names=("a", "b")))
        result = check_certificate(Certificate(((p, q),), "upto-context", 64))
        if result.outcome != "certified":
            continue
        certified += 1
        lts = union_lts([p, q], Bounds(800, 128))
        assert not lts.truncated
        weak = compute_partition(lts, "weak")
        assert weak.relates(lts.initials[0], lts.initials[1]), (render(p), render(q))
    assert certified >= 3


def test_certification_sound_on_equivalent_shapes():
    pairs = [
        (parse("a.(b | c)"), parse("a.(c | b | 0)")),
        (parse("!(a | 'a)"), parse("!(a | 'a) | 0")),
    ]
    for p, q in pairs:
        result = check_certificate(Certificate(((p, q),), "upto-context", 64))
        assert result.outcome == "certified"
