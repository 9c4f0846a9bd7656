import pytest

from pcalc.genterms import random_hoccsm, rng_from_env
from pcalc.hocore import (
    Context,
    OpenTermError,
    TestFamilies,
    context_game,
    derived_replication,
    ho_step,
    ho_subst,
)
from pcalc.semantics import TAU, Action
from pcalc.syntax import (
    NIL,
    HoInput,
    HoOutput,
    Par,
    Var,
    canonicalize,
    free_vars,
    parse,
    render,
    term_key,
)


def hparse(text):
    return parse(text, dialect="hoccsm")


def test_subst_drops_nil_payload():
    p = Par((Var("X"), HoOutput("b", NIL, NIL)))
    assert ho_subst(p, "X", NIL) == canonicalize(HoOutput("b", NIL, NIL))


def test_subst_respects_binding():
    p = hparse("a(X).X")
    assert ho_subst(p, "X", hparse("m")) == canonicalize(p)


def test_subst_variable_case():
    a = hparse("a(Y).Y")
    assert ho_subst(Var("X"), "X", a) == canonicalize(a)


def test_subst_rejects_open_payload():
    with pytest.raises(OpenTermError):
        ho_subst(Var("X"), "X", Var("Y"))


def test_subst_compositional():
    rng = rng_from_env(41)
    holes = 0
    for _ in range(500):
        body = random_hoccsm(rng, rng.randint(1, 8), scope=("H",))
        payload = random_hoccsm(rng, rng.randint(1, 6))
        if free_vars(payload):
            continue
        ctx = Par((body, Var("H")))
        plugged_then = ho_subst(ctx, "H", payload)
        inner_first = canonicalize(Par((ho_subst(body, "H", payload), payload)))
        assert plugged_then == inner_first
        holes += 1
    assert holes > 200


def test_plain_replication_shape():
    body = hparse("'d<0>.0")
    bang = derived_replication(body)
    q = HoInput("c0", "X", Par((HoOutput("c0", Var("X"), NIL), Var("X"), body)))
    assert bang == Par((HoOutput("c0", q, NIL), q))


def test_guarded_replication_shape():
    expanded = hparse("!g a(Y).0")
    q = HoInput("c0", "X", HoInput("a", "Y", Par((HoOutput("c0", Var("X"), NIL), Var("X"), NIL))))
    assert expanded == Par((HoOutput("c0", q, NIL), q))


def test_distinct_replicator_names_per_expansion():
    two = hparse("!('d<0>.0) | !('e<0>.0)")
    names = {t.channel for t in _all_outputs(two)}
    assert "c0" in names and "c1" in names


def _all_outputs(t):
    from pcalc.syntax import subterms

    return [s for s in subterms(t) if isinstance(s, HoOutput)]


def test_replication_avoids_occupied_names():
    # c0 already taken by the body, the replicator moves to c1
    bang = derived_replication(hparse("'c0<0>.0"))
    assert any(o.channel == "c1" for o in _all_outputs(bang))


def test_replication_rejects_open_body():
    with pytest.raises(OpenTermError):
        derived_replication(Var("X"))


def test_replication_unfolds_by_one_silent_step():
    rng = rng_from_env(42)
    checked = 0
    for _ in range(200):
        body = random_hoccsm(rng, rng.randint(1, 6))
        if free_vars(body):
            continue
        bang = canonicalize(derived_replication(body))
        fam = TestFamilies.default(bang, bang)
        taus = [t for a, t in ho_step(bang, fam) if a.is_tau]
        assert canonicalize(Par((bang, body))) in taus
        checked += 1
    assert checked > 100


def test_ho_step_output_axiom():
    fam = TestFamilies.default(NIL, NIL)
    p = hparse("'a<m.0>.'b.0")
    ((act, cont),) = ho_step(p, fam)
    assert act == Action("out", "a", canonicalize(hparse("m.0")))
    assert cont == canonicalize(hparse("'b.0"))


def test_ho_step_communication_uses_actual_payload():
    p = hparse("a(X).X | 'a<'b.0>.0")
    fam = TestFamilies(inputs=(NIL,), contexts=(Context(Var("X")),))
    moves = ho_step(p, fam)
    taus = [t for a, t in moves if a.is_tau]
    assert taus == [canonicalize(hparse("'b.0"))]


def test_one_action_labels_and_orders_moves_of_both_orders():
    fam = TestFamilies(inputs=(NIL, canonicalize(hparse("m.0"))), contexts=(Context(Var("X")),))
    moves = ho_step(hparse("a(X).X | 'a<'b.0>.0"), fam)
    assert [a.label() for a, _t in moves] == ["tau", "a(0)", "a(m)", "'a<'b>"]
    assert moves[0][0] is TAU
    # a payload extends the first-order key (rank, name) by its term key
    assert Action("in", "a").sort_key() == (1, "a") and Action("out", "b").label() == "'b"
    assert Action("out", "a", NIL).sort_key() == (2, "a", term_key(NIL))
    assert Action("in", "a") != Action("in", "a", NIL)


def test_ho_step_inputs_range_over_family():
    fam = TestFamilies(
        inputs=(NIL, canonicalize(hparse("m.0"))),
        contexts=(Context(Var("X")),),
    )
    moves = ho_step(hparse("a(X).X"), fam)
    targets = {render(t, compact=True) for a, t in moves}
    assert targets == {"0", "m"}
    assert all(a.kind == "in" for a, _t in moves)


def test_ho_step_congruence_invariance():
    rng = rng_from_env(43)
    fam = TestFamilies.default(NIL, NIL)
    done = 0
    for _ in range(300):
        t = random_hoccsm(rng, rng.randint(2, 7))
        if free_vars(t):
            continue
        parts = list(t.parts) if isinstance(t, Par) else [t]
        rng.shuffle(parts)
        shuffled = Par(tuple(parts)) if len(parts) > 1 else parts[0]
        assert set(ho_step(t, fam)) == set(ho_step(shuffled, fam))
        done += 1
    assert done > 100


def test_context_game_copycat():
    p = canonicalize(hparse("a(X).(X | 'b<0>.0)"))
    for mode in ("strong", "weak"):
        verdict = context_game(p, p, mode, depth=3)
        assert verdict.outcome == "unknown"
        assert verdict.bound_report == {"no_distinction_up_to": 3, "tau_bound": 4}


def test_context_game_strong_refutes_unfolded_replication():
    body = hparse("'d<0>.0")
    bang = canonicalize(derived_replication(body))
    unfolded = canonicalize(Par((bang, canonicalize(body))))
    verdict = context_game(bang, unfolded, "strong", depth=4)
    assert verdict.outcome == "inequivalent"
    assert verdict.trace == []
    assert verdict.final[1] == Action("out", "d", NIL)
    # the folded side's immediate visible moves stay on the replicator channel
    fam = verdict.families
    assert {a.name for a, _t in ho_step(bang, fam) if not a.is_tau} == {"c0"}


def test_context_game_weak_also_refutes_unfolded_replication():
    # without restriction the replicator channel is observable: once either
    # side emits its replicator token, neither can copy again, and the
    # unfolded side is left holding an unmatchable d
    body = hparse("'d<0>.0")
    bang = canonicalize(derived_replication(body))
    unfolded = canonicalize(Par((bang, canonicalize(body))))
    verdict = context_game(bang, unfolded, "weak", depth=4)
    assert verdict.outcome == "inequivalent"
    first = verdict.trace[0]
    assert first.action.kind == "out" and first.action.name == "c0"
    assert verdict.final[1] == Action("out", "d", NIL)


def test_context_game_right_side_attacks_are_defended_weakly():
    # the unfold-then-copy defense does answer every challenge of the
    # unfolded side; restrict the attacker to that side to observe it
    body = hparse("'d<0>.0")
    bang = canonicalize(derived_replication(body))
    unfolded = canonicalize(Par((bang, canonicalize(body))))
    fam = TestFamilies.default(bang, unfolded)
    from pcalc.hocore import _ContextGame

    game = _ContextGame("weak", fam, tau_bound=4)
    for action, deriv in game.step(unfolded):
        answers = [tuple(game.answer(r, unfolded, action, deriv)) for r in game.responses(bang, action)]
        assert any(
            all(cont[0] == cont[1] for cont, _lab in ans) for ans in answers
        ), f"no copycat answer for {action.label()}"


@pytest.mark.parametrize(
    "text, label",
    [
        ("X | a(X1).X1", "[.] | a(X1).X1"),
        ("X | aX", "[.] | aX"),
        ("X | a(X).X", "[.] | a(X).X"),
    ],
)
def test_context_label_marks_only_the_free_hole(text, label):
    # a bound X, a variable named X1 and a channel named aX are no hole
    assert Context(hparse(text)).label() == label


def test_enlarging_families_preserves_refutation():
    body = hparse("'d<0>.0")
    bang = canonicalize(derived_replication(body))
    unfolded = canonicalize(Par((bang, canonicalize(body))))
    base = TestFamilies.default(bang, unfolded)
    bigger = TestFamilies(
        base.inputs + (canonicalize(hparse("k(Z).Z")),),
        base.contexts + (Context(Par((Var("X"), hparse("'n<0>.0")))),),
    )
    for fam in (base, bigger):
        assert context_game(bang, unfolded, "strong", 4, fam).outcome == "inequivalent"


def test_strong_depth_one_equals_action_set_comparison():
    rng = rng_from_env(44)
    done = 0
    while done < 150:
        p = random_hoccsm(rng, rng.randint(1, 6))
        q = random_hoccsm(rng, rng.randint(1, 6))
        if free_vars(p) or free_vars(q):
            continue
        p, q = canonicalize(p), canonicalize(q)
        fam = TestFamilies.default(p, q)
        if any(a.is_tau for a, _ in ho_step(p, fam)) or any(a.is_tau for a, _ in ho_step(q, fam)):
            continue
        verdict = context_game(p, q, "strong", depth=1, fam=fam)

        def shapes(t):
            # one-step observability: outputs count by channel, payloads only
            # feed the context fork that depth one cannot inspect
            return {
                a if a.kind != "out" else ("out", a.name)
                for a, _ in ho_step(t, fam)
            }

        assert (verdict.outcome == "unknown") == (shapes(p) == shapes(q))
        if verdict.outcome == "unknown":
            assert verdict.bound_report == {"no_distinction_up_to": 1, "tau_bound": 4}
        done += 1


def test_game_rejects_open_terms():
    with pytest.raises(OpenTermError):
        context_game(Var("X"), NIL, "strong", 2)

