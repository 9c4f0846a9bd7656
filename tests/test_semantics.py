import gc
import json
import random
import weakref

import pytest

from oracles import naive_explore, naive_step
from pcalc import equivalence, semantics
from pcalc.genterms import random_ccsm, random_stabilizing, rng_from_env
from pcalc.semantics import (
    TAU,
    Bounds,
    SilentClosures,
    TruncatedInput,
    build_lts,
    closures,
    diverges,
    silent_run,
    step,
    union_lts,
)
from pcalc.syntax import NIL, InputPrefix, Par, canonicalize, parse, render


def moves(text):
    return {(a.label(), render(t, compact=True)) for a, t in step(parse(text))}


def test_step_prefix_axioms():
    assert moves("a.0") == {("a", "0")}
    assert moves("'a.0") == {("'a", "0")}
    assert step(NIL) == ()


def test_step_replication_unfolds_onto_itself():
    assert moves("!a.0") == {("a", "!a")}


def test_step_replicated_handshake():
    # all four rule instances fire, including the self-communication that
    # unfolds a fresh copy of both halves
    assert moves("!(a.0 | 'a.0)") == {
        ("a", "'a | !(a | 'a)"),
        ("'a", "a | !(a | 'a)"),
        ("tau", "!(a | 'a)"),
        ("tau", "a | 'a | !(a | 'a)"),
    }


def test_step_communication():
    assert moves("a.'b.0 | 'a.0") == {
        ("a", "'a | 'b"),
        ("'a", "a.'b"),
        ("tau", "'b"),
    }


def test_step_matches_oracle_on_random_terms():
    rng = rng_from_env(21)
    for _ in range(3_000):
        t = random_ccsm(rng, rng.randint(1, 10))
        assert set(step(t)) == naive_step(canonicalize(t)), render(t)


def test_congruence_is_strong_bisimulation_for_step():
    rng = rng_from_env(22)
    for _ in range(500):
        t = random_ccsm(rng, rng.randint(2, 9))
        if not isinstance(t, Par):
            t = Par((t, InputPrefix("e", NIL)))
        parts = list(t.parts)
        rng.shuffle(parts)
        assert set(step(t)) == set(step(Par(tuple(parts))))


def test_build_lts_handshake_graph():
    lts = build_lts(parse("a.'b.0 | 'a.0"), Bounds(100, 100))
    oracle_states, oracle_edges = naive_explore(parse("a.'b.0 | 'a.0"))
    assert not lts.truncated
    assert lts.num_states() == len(oracle_states) == 6
    got_edges = {(lts.states[s], a, lts.states[t]) for s, a, t in lts.edges}
    assert got_edges == oracle_edges
    assert sum(1 for _s, a, _t in lts.edges if a.is_tau) == 1


def test_build_lts_deterministic():
    a = build_lts(parse("!c.d | !'c | d"), Bounds(60, 10))
    b = build_lts(parse("!c.d | !'c | d"), Bounds(60, 10))
    assert a.states == b.states
    assert a.edges == b.edges
    assert a.to_json() == b.to_json()


def test_build_lts_truncates_growing_terms():
    lts = build_lts(parse("!c.d | !'c | d"), Bounds(8, 3))
    assert lts.truncated
    assert lts.frontier
    # the replicated handshake also grows without bound
    lts2 = build_lts(parse("!(a | 'a)"), Bounds(10, 10))
    assert lts2.truncated
    assert (lts2.initial, TAU, lts2.initial) in [(s, a, t) for s, a, t in lts2.edges]


def test_union_lts_merges_congruent_roots():
    lts = union_lts([parse("a | b"), parse("b | a")], Bounds(50, 50))
    assert lts.initials == (0, 0)


def test_tau_edges_decompose_into_visible_pairs():
    rng = rng_from_env(23)
    checked = 0
    for _ in range(300):
        t = random_ccsm(rng, rng.randint(2, 8), allow_repl=False)
        lts = build_lts(t, Bounds(300, 64))
        if lts.truncated:
            continue
        for s, a, u in lts.edges:
            if not a.is_tau:
                continue
            checked += 1
            found = False
            for b, mid in lts.succ(s):
                if b.is_tau:
                    continue
                comp = b.complement()
                if any(c == comp and v == u for c, v in lts.succ(mid)):
                    found = True
                    break
            assert found, render(lts.states[s])
    assert checked > 50


@pytest.mark.parametrize(
    "text,expected,bounds",
    [
        ("!(a | 'a)", "yes", Bounds(64, 16)),
        ("!a | !'a", "yes", Bounds(64, 16)),
        ("a.'b | 'a", "no", Bounds(64, 16)),
        ("!c.d | !'c | d", "yes", Bounds(8, 3)),
    ],
)
def test_divergence_verdicts(text, expected, bounds):
    lts = build_lts(parse(text), bounds)
    assert diverges(lts, lts.initial) == expected


CHAIN = "a.(a.(a | 'a) | 'a) | 'a"  # a silent chain of three steps, with no cycle or growth


def test_divergence_decided_past_a_blind_truncation():
    # the chain is longer than the depth bound: the search reads it to its end
    lts = build_lts(parse(CHAIN), Bounds(100, 2))
    assert lts.truncated
    assert diverges(lts, lts.initial) == "no"
    assert lts.diverges == ["no"] * lts.num_states()


def _searched(text):
    """The parts and the part-id state of a term, as silent_run takes them."""
    term = parse(text)
    table = semantics._States([term])
    return table.parts, table.tuples[table.state(term)]


def test_silent_run_covers_equal_and_larger_states(monkeypatch):
    # !a | !'a only ever steps back to itself: an equal state covers too. A
    # small cap turns a covering test that misses it into a quick unknown.
    monkeypatch.setattr(semantics, "_SILENT_RUN_CAP", 50)
    assert silent_run(*_searched("!a | !'a"), {}) == "yes"
    assert silent_run(*_searched("!c.d | !'c | d"), {}) == "yes"  # each handshake adds a d
    assert silent_run(*_searched(CHAIN), {}) == "no"
    # a frontier state whose one silent run is a cycle below it
    lts = build_lts(parse("a.(!b | !'b) | 'a"), Bounds(1, 64))
    assert lts.frontier == {lts.initial} and lts.diverges == ["yes"]


def test_silent_run_memoises_its_answers(monkeypatch):
    parts, state = _searched(CHAIN)
    memo = {}
    assert silent_run(parts, state, memo) == "no"
    assert len(memo) == 4 and set(memo.values()) == {"no"}  # the chain's four states
    grow, grown = _searched("!c.d | !'c | d")
    grow_memo = {}
    assert silent_run(grow, grown, grow_memo) == "yes" and grow_memo[grown] == "yes"
    # an answer in the memo is read, not searched again
    monkeypatch.setattr(semantics, "_SILENT_RUN_CAP", 0)
    assert silent_run(parts, state, memo) == "no" and silent_run(grow, grown, grow_memo) == "yes"
    assert silent_run(parts, state, {}) == "unknown"


def test_silent_run_answers_unknown_past_its_cap(monkeypatch):
    monkeypatch.setattr(semantics, "_SILENT_RUN_CAP", 1)
    assert silent_run(*_searched(CHAIN), {}) == "unknown"
    lts = build_lts(parse(CHAIN), Bounds(100, 2))
    assert diverges(lts, lts.initial) == "unknown"
    # the chain's four states cost 1 + 2 + 3 + 4: each is read, and compared
    # with the ancestors on its path
    monkeypatch.setattr(semantics, "_SILENT_RUN_CAP", 9)
    assert silent_run(*_searched(CHAIN), {}) == "unknown"
    monkeypatch.setattr(semantics, "_SILENT_RUN_CAP", 10)
    assert silent_run(*_searched(CHAIN), {}) == "no"


def test_truncated_divergence_flags_agree_with_complete_graphs():
    # Fixed here rather than read from PCALC_SEED: every state of a graph cut
    # at 3-20 states has the flag of its term in the graph a larger bound
    # completes, and no flag is unknown.
    rng = random.Random(1)
    completed = frontier = yes = 0
    for i in range(200):
        term = random_stabilizing(rng) if i % 2 else random_ccsm(rng, rng.randint(3, 12))
        cut = build_lts(term, Bounds(rng.randint(3, 20), 64))
        assert "unknown" not in cut.diverges
        if not cut.truncated:
            continue
        full = build_lts(term, Bounds(500, 64))
        if full.truncated:
            continue
        completed += 1
        index = {p: k for k, p in enumerate(full.states)}
        for s, flag in enumerate(cut.diverges):
            assert flag == full.diverges[index[cut.states[s]]]
            if s in cut.frontier:
                frontier += 1
                yes += flag == "yes"
    assert completed >= 30 and frontier >= 100 and yes >= 15


def test_divergence_no_states_are_cycle_free():
    lts = build_lts(parse("a.'b | 'a | !c"), Bounds(64, 16))
    cls = closures(lts)
    for s in range(lts.num_states()):
        if lts.diverges[s] != "no":
            continue
        for u in cls[s].states()[0]:
            for a, v in lts.succ(u):
                assert not (a.is_tau and u in cls[v].states()[0]), "cycle under a no-state"


def test_diverges_unknown_state():
    lts = build_lts(parse("a.0"), Bounds(10, 10))
    with pytest.raises(KeyError):
        diverges(lts, 99)


def test_closures_refuse_truncated():
    lts = build_lts(parse("!c.d | !'c | d"), Bounds(8, 3))
    with pytest.raises(TruncatedInput):
        closures(lts)


def test_lts_exports():
    lts = build_lts(parse("a.'b | 'a"), Bounds(50, 50))
    blob = lts.to_json()
    assert blob["initial"] == 0
    assert not blob["truncated"]
    assert len(blob["states"]) == lts.num_states()
    assert all(label in ("tau", "a", "'a", "b", "'b") for _s, label, _t in blob["edges"])
    json.dumps(blob)
    dot = lts.to_dot()
    assert dot.startswith("digraph") and "doublecircle" not in dot
    divergent = build_lts(parse("!a | !'a"), Bounds(10, 10))
    assert "doublecircle" in divergent.to_dot()


def test_read_silent_closures_are_freed_without_the_cyclic_collector():
    # A closure holds the step, bound and cap it reads, not its owner, so a
    # finished game's or trace search's closures die with their last reference.
    lts = build_lts(parse("a.'b | 'a | b"), Bounds(50, 50))
    term = canonicalize(parse("a.'b | 'a | b"))
    for graph_states in (True, False):
        cls = closures(lts) if graph_states else SilentClosures(step, 4, 64)
        assert len(cls[lts.initial if graph_states else term].states()[0]) > 1
        ref = weakref.ref(cls)
        gc.disable()
        try:
            del cls
            assert ref() is None
        finally:
            gc.enable()
    # a finished first-order game too, with its state table and parts: the
    # table's memoised step and state order close over its dict and list and
    # the parts' moves, and nothing the parts hold refers back to the table
    p, q = parse("!c.d | !'c | d"), parse("!c.d | !'c | !c")
    game = equivalence._OnTheFly("weak", 7, (p, q))
    assert game.play(game.state(p), game.state(q), 7)[0] is None
    refs = [weakref.ref(x) for x in (game, game.states, game.states.parts)]
    gc.disable()
    try:
        del game
        assert [ref() for ref in refs] == [None] * 3
    finally:
        gc.enable()
