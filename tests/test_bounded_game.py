"""The bounded on-the-fly game and the parallel step rule against frozen references.

The game reference below is the earlier implementation, kept verbatim: it
rebuilds every defender answer list on each visit, keeps its own step memo,
and starts each deepening budget with an empty memo. The memoised game in
`pcalc.equivalence` must give the same verdicts and the same traces. The step
reference reads the parallel rule once per position and per pair of
positions, where `pcalc.semantics.step` steps each distinct part once.
"""

import itertools
import random

import pytest

import memory
import sweep
from oracles import SWEEP_BOUNDS, sweep_pairs
from pcalc import equivalence
from pcalc.equivalence import (
    CCSM_KINDS,
    AttackerTrace,
    TraceStep,
    Verdict,
    bounded_game,
    decide,
    relation,
)
from pcalc.evidence import replay_trace
from pcalc.genterms import random_ccsm, random_stabilizing
from pcalc.semantics import TAU, Bounds, step, union_lts
from pcalc.syntax import InputPrefix, OutputPrefix, Par, Repl, Term, canonicalize, parse, term_key

# ---------------------------------------------------------------------------
# Reference implementation (verbatim)

_TAU_CAP = 4096


class _OnTheFly:
    def __init__(self, kind, tau_bound):
        self.kind = kind
        self.tau_bound = tau_bound
        self._closure_cache = {}
        self._step_cache = {}

    def moves(self, p):
        ms = self._step_cache.get(p)
        if ms is None:
            ms = step(p)
            self._step_cache[p] = ms
        return ms

    def tau_closure(self, p):
        seen = self._closure_cache.get(p)
        if seen is not None:
            return seen
        seen = {p: 0}
        queue = [p]
        while queue:
            u = queue.pop(0)
            if seen[u] >= self.tau_bound:
                continue
            for a, t in self.moves(u):
                if a.is_tau and t not in seen and len(seen) < _TAU_CAP:
                    seen[t] = seen[u] + 1
                    queue.append(t)
        out = tuple(sorted(seen, key=term_key))
        self._closure_cache[p] = out
        return out

    def answers(self, chal, defn, action, deriv, left_is_chal):
        def orient(c, d):
            return (c, d) if left_is_chal else (d, c)

        kind = self.kind
        out = []
        if kind == "strong":
            for a, t in self.moves(defn):
                if a == action:
                    out.append((orient(deriv, t),))
        elif kind == "weak":
            if action.is_tau:
                for t in self.tau_closure(defn):
                    out.append((orient(deriv, t),))
            else:
                seen = set()
                for pre in self.tau_closure(defn):
                    for a, mid in self.moves(pre):
                        if a == action:
                            for t in self.tau_closure(mid):
                                if t not in seen:
                                    seen.add(t)
                                    out.append((orient(deriv, t),))
        elif kind == "quasi-strong":
            if action.is_tau:
                for a, t in self.moves(defn):
                    if a.is_tau:
                        out.append((orient(deriv, t),))
            else:
                seen = set()
                for pre in self.tau_closure(defn):
                    for a, t in self.moves(pre):
                        if a == action and t not in seen:
                            seen.add(t)
                            out.append((orient(deriv, t),))
        elif kind == "branching":
            if action.is_tau:
                out.append((orient(deriv, defn),))
            for pre in self.tau_closure(defn):
                for a, t in self.moves(pre):
                    if a == action:
                        out.append((orient(chal, pre), orient(deriv, t)))
        elif kind == "qs-branching":
            if action.is_tau:
                for a, t in self.moves(defn):
                    if a.is_tau:
                        out.append((orient(deriv, t),))
            else:
                for pre in self.tau_closure(defn):
                    for a, t in self.moves(pre):
                        if a == action:
                            out.append((orient(chal, pre), orient(deriv, t)))
        else:
            raise ValueError(f"unknown kind {kind!r}")
        return out

    def attack(self, l, r, budget, safe):
        """Refutation steps from (l, r) within budget, or None."""
        if l == r or budget <= 0:
            return None
        key = (l, r)
        if safe.get(key, -1) >= budget:
            return None
        options = []
        for side, chal, defn, left_is_chal in (("left", l, r, True), ("right", r, l, False)):
            for action, deriv in self.moves(chal):
                options.append((action.sort_key(), 0 if side == "left" else 1, term_key(deriv), side, action, deriv, chal, defn, left_is_chal))
        options.sort(key=lambda o: o[:3])
        for _ak, _sd, _dk, side, action, deriv, chal, defn, left_is_chal in options:
            answers = self.answers(chal, defn, action, deriv, left_is_chal)
            if not answers:
                return [(side, action, None, False)]
            # every answer must offer a refutable continuation
            per_answer = []
            ok = True
            for ans in answers:
                chosen = None
                for cont in ans:
                    tail = self.attack(cont[0], cont[1], budget - 1, safe)
                    if tail is not None:
                        chosen = (cont, tail, len(ans) > 1 and cont == ans[0])
                        break
                if chosen is None:
                    ok = False
                    break
                per_answer.append(chosen)
            if ok:
                # show the defender answer whose refutation is longest
                cont, tail, rolled = max(per_answer, key=lambda c: len(c[1]))
                return [(side, action, cont, rolled)] + tail
        safe[key] = budget
        return None


def ref_bounded_game(p: Term, q: Term, kind: str, depth: int, tau_bound: int = None) -> Verdict:
    """Semi-decide a pair by a depth-bounded game directly over terms.

    A returned refutation is a concrete attacker strategy and is sound as long
    as tau_bound covers the defender's silent moves; otherwise the verdict is
    unknown with a no-distinction bound report.
    """
    if kind not in CCSM_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    p, q = canonicalize(p), canonicalize(q)
    if p == q:  # every kind is reflexive
        return Verdict("equivalent", kind, stats={"depth": depth})
    if tau_bound is None:
        tau_bound = max(depth, 4)
    game = _OnTheFly(kind, tau_bound)
    found = None
    for budget in range(1, depth + 1):
        found = game.attack(p, q, budget, {})
        if found is not None:
            break
    if found is None:
        return Verdict(
            "unknown",
            kind,
            bound_report={"no_distinction_up_to": depth, "tau_bound": tau_bound},
            stats={"depth": depth},
        )
    steps = []
    cur = (p, q)
    reason = "no-match"
    final_side, final_action = "", None
    for side, action, cont, rolled in found:
        if cont is None:
            final_side, final_action = side, action
            break
        steps.append(TraceStep(side, action, cont, rolled_back=rolled))
        cur = cont
    trace = AttackerTrace(kind, (p, q), tuple(steps), reason, final_side, final_action)
    return Verdict("inequivalent", kind, trace=trace, stats={"depth": depth})


def per_position_step(p: Par):
    """step's result for a canonical Par, reading the rule once per position
    and once per unordered pair of positions."""
    parts = p.parts
    part_moves = [step(q) for q in parts]
    moves = set()
    for i, ms in enumerate(part_moves):
        for act, t in ms:
            moves.add((act, canonicalize(Par(parts[:i] + (t,) + parts[i + 1 :]))))
    for i, j in itertools.combinations(range(len(parts)), 2):
        rest = parts[:i] + parts[i + 1 : j] + parts[j + 1 :]
        for act_i, t_i in part_moves[i]:
            for act_j, t_j in part_moves[j]:
                if not act_i.is_tau and act_j == act_i.complement():
                    moves.add((TAU, canonicalize(Par(rest + (t_i, t_j)))))
    return tuple(sorted(moves, key=lambda m: (m[0].sort_key(), term_key(m[1]))))


# ---------------------------------------------------------------------------
# Cross-checks

# Fixed here rather than read from PCALC_SEED: the comparison is exact, so
# any seed would do, and a fixed set keeps the cost of the test fixed.
SEED = 4
GAME_STATS = ("game_positions", "memo_hits", "responses", "closures_cut")


def _random_part(rng):
    if rng.random() < 0.5:
        return random_stabilizing(rng)
    return random_ccsm(rng, rng.randint(1, 6))


def _mutate(rng, t):
    """t with one subterm replaced, most often deep inside, so that the two
    sides agree for a few moves."""
    if rng.random() < 0.75:
        if isinstance(t, (InputPrefix, OutputPrefix)):
            return type(t)(t.name, _mutate(rng, t.cont))
        if isinstance(t, Repl):
            return Repl(_mutate(rng, t.body))
        if isinstance(t, Par):
            i = rng.randrange(len(t.parts))
            return Par(t.parts[:i] + (_mutate(rng, t.parts[i]),) + t.parts[i + 1 :])
    return random_ccsm(rng, rng.randint(1, 3), allow_repl=False)


def _random_pair(rng):
    """A pair of terms with replication: the right one is a mutation of the
    left, an extension of it by a part, or unrelated."""
    p = _random_part(rng)
    roll = rng.random()
    if roll < 0.5:
        q = _mutate(rng, p)
    elif roll < 0.75:
        q = Par((p, random_ccsm(rng, rng.randint(1, 3), allow_repl=False)))
    else:
        q = _random_part(rng)
    return p, q


def _game_json(verdict, cap=_TAU_CAP):
    """The verdict's JSON less what the reference does not count: the work
    counters, and the cut closures an unknown verdict's bound names, which
    must be the counted ones, with the closure cap."""
    out = verdict.to_json()
    cut = out["stats"]["closures_cut"]
    for key in GAME_STATS:
        out["stats"].pop(key)
    if "bound" in out:
        assert out["bound"].pop("closures_cut", 0) == cut
        assert out["bound"].pop("closure_cap", None) == (cap if cut else None)
    return out


def test_step_steps_each_distinct_part_once():
    rng = random.Random(SEED)
    checked = 0
    for _ in range(300):
        parts = [_random_part(rng) for _ in range(rng.randint(1, 3))]
        term = canonicalize(Par(tuple(q for q in parts for _ in range(rng.randint(1, 3)))))
        if isinstance(term, Par):
            assert step(term) == per_position_step(term)
            checked += 1
    for k in range(1, 7):
        growth = canonicalize(parse("!c.d | !'c" + " | d" * k))
        assert step(growth) == per_position_step(growth)
    assert step(parse("'d | 'd | 'd | d | d")) == per_position_step(canonicalize(parse("'d | 'd | 'd | d | d")))
    assert checked > 200


def test_memoised_game_matches_reference_on_random_pairs():
    rng = random.Random(SEED)
    outcomes = set()
    for i in range(120):
        p, q = _random_pair(rng)
        kind = CCSM_KINDS[i % 5]
        depth = rng.randint(1, 4)
        for tau_bound in (4, 64):
            new = bounded_game(p, q, kind, depth, tau_bound)
            ref = ref_bounded_game(p, q, kind, depth, tau_bound)
            assert _game_json(new) == ref.to_json(), (i, kind, tau_bound)
            assert set(new.stats) == {"depth", *GAME_STATS}
            outcomes.add(new.outcome)
    assert outcomes == {"equivalent", "inequivalent", "unknown"}


def test_memoised_game_matches_reference_on_growth_pair():
    p, q = parse("!c.d | !'c | d"), parse("!c.d | !'c | !c")
    for kind in CCSM_KINDS:
        new = bounded_game(p, q, kind, 4)
        assert _game_json(new) == ref_bounded_game(p, q, kind, 4).to_json(), kind
        if new.trace is not None:
            assert replay_trace(new.trace)


def test_deepening_reuses_what_earlier_budgets_proved():
    p, q = parse("!c.d | !'c | d"), parse("!c.d | !'c | !c")
    for kind in ("weak", "branching"):
        fresh = 0  # positions expanded when each budget starts with an empty memo
        for budget in range(1, 5):
            game = equivalence._OnTheFly(kind, 4, (p, q))
            game.attack(game.state(p), game.state(q), budget)
            fresh += game.positions
        assert bounded_game(p, q, kind, 4).stats["game_positions"] < fresh


def test_growth_pair_game_work_is_pinned():
    # positions expanded, memo hits, memoised responses and cut closures of
    # the depth-7 games on the growth pair, as the search over terms counted
    # them: playing over part-id states changes what a position is, not how
    # many the search visits
    p, q = parse("!c.d | !'c | d"), parse("!c.d | !'c | !c")
    pinned = {
        "weak": (4190, 15154, 726, 726),
        "branching": (2106, 16058, 395, 395),
        "quasi-strong": (1660, 6904, 395, 296),
    }
    for kind, counts in pinned.items():
        verdict = bounded_game(p, q, kind, 7)
        assert verdict.outcome == "unknown"
        assert tuple(verdict.stats[k] for k in GAME_STATS) == counts, kind


def test_growth_pair_game_tables_are_keyed_by_ints():
    # the game plays over interned state ids and action ids: no memo table
    # hashes a part-id tuple or an Action
    p, q = parse("!c.d | !'c | d"), parse("!c.d | !'c | !c")
    game = equivalence._OnTheFly("weak", 7, (p, q))
    assert game.play(game.state(p), game.state(q), 7)[0] is None
    for table in (game.safe, game._responses, game._challenges):
        assert table
        assert all(type(key) is tuple and len(key) == 2 and all(type(x) is int for x in key) for key in table)


def test_growth_pair_game_tables_share_their_entries():
    # the memo tables hold references: a state's challenges on a side are
    # built once for every position that holds it, equal response elements
    # are one object, and `safe` keys each position with the challenge
    # memo's key
    p, q = parse("!c.d | !'c | d"), parse("!c.d | !'c | !c")
    game = equivalence._OnTheFly("weak", 7, (p, q))
    assert game.play(game.state(p), game.state(q), 7)[0] is None
    by_left = {}
    for (l, _r), challenges in game._challenges.items():
        by_left.setdefault(l, []).append([c for c in challenges if c[0] == "left"])
    assert any(len(held) > 1 for held in by_left.values())
    for held in by_left.values():
        assert all(len(h) == len(held[0]) and all(x is y for x, y in zip(h, held[0])) for h in held)
    elements = [e for out in game._responses.values() for e in out]
    assert len({id(e) for e in elements}) == len(set(elements)) < len(elements)
    keys = {id(key) for key in game._challenges}
    assert game.safe and all(id(key) in keys for key in game.safe)


def test_growth_pair_weak_game_retains_under_two_mib():
    # tests/memory.py: 3.09 MiB traced when every position kept its own
    # copies of its challenges, responses and key; 1.15 MiB shared
    assert memory.growth_game_retained("weak") < 2.0


def test_closures_cut_counts_bounded_defender_closures():
    left = parse("a.a.a.a.a.a.a.a.'d | !a | !'a | !d")
    right = parse("'d | !a | !'a | !d")
    verdict = decide(left, right, "weak", Bounds(3, 64), game_depth=2)
    assert verdict.stats["closures_cut"] >= 1
    # a closure bound beyond the eight silent steps cuts nothing
    assert bounded_game(left, right, "weak", 2, tau_bound=64).stats["closures_cut"] == 0


def test_an_unknown_game_bound_names_the_cut_closures():
    # the growth pair's silent closures never end: tau_bound cuts them, and
    # the bound names how many, and the closure cap; !a against its
    # unfolding reads only closures that end, and names neither
    p, q = parse("!c.d | !'c | d"), parse("!c.d | !'c | !c")
    verdict = bounded_game(p, q, "weak", 3)
    cut = verdict.stats["closures_cut"]
    assert verdict.outcome == "unknown" and cut > 0
    assert verdict.bound_report == {"no_distinction_up_to": 3, "tau_bound": 4, "closures_cut": cut, "closure_cap": 4096}
    uncut = bounded_game(parse("!a"), parse("!a | a"), "weak", 3)
    assert uncut.outcome == "unknown" and uncut.stats["closures_cut"] == 0
    assert uncut.bound_report == {"no_distinction_up_to": 3, "tau_bound": 4}


def test_the_defender_plays_its_longest_refutation():
    # answering a by a -a-> 0 loses at once to b; a.b.c -a-> b.c holds out
    # one step longer
    verdict = bounded_game(parse("a.b.0 | a.0"), parse("a.0 | a.b.c.0"), "strong", 5)
    assert verdict.trace.to_json() == {
        "kind": "strong",
        "start": ["a | a.b", "a | a.b.c"],
        "steps": [
            {"side": "left", "action": "a", "after": ["a | b", "a | b.c"]},
            {"side": "left", "action": "b", "after": ["a", "a | c"]},
        ],
        "reason": "no-match",
        "final": {"side": "right", "action": "c"},
    }


def test_silent_closures_stop_at_bound_and_cap():
    grow = canonicalize(parse("!c.d | !'c"))  # every silent step adds a d
    for bound, cap, size in ((2, 4096, 3), (None, 5, 5), (0, 4096, 1)):
        states, complete = equivalence.SilentClosures(step, bound, cap)[grow].states()
        assert len(states) == size and not complete
        assert sorted(len(t.parts) for t in states) == [len(grow.parts) + i for i in range(size)]
    # iteration is breadth-first; states() is in term order and complete here
    closure = equivalence.SilentClosures(step, None, 4096)[canonicalize(parse("a.'b | 'a | b"))]
    bfs = [canonicalize(parse(t)) for t in ("a.'b | 'a | b", "'b | b", "0")]
    assert list(closure) == bfs
    assert closure.states() == (tuple(sorted(bfs, key=term_key)), True)


# ROADMAP 1a: bounded weak games that cut the defender's silent closures and
# report a refutation that the complete graph denies. Repro A's trace fails
# replay; Repro B's passes replay at tau_bound 64, so replay alone is no fix.
UNSOUND_REPROS = [
    ("a.a.a.a.a.a.a.a.'d | !a | !'a | !d", "'d | !a | !'a | !d", 3, 2, None, 10),
    (
        "'d.d.a.a.d.0 | a.'a.d.d.0 | 'd.a.a.d.d.0 | !a | !'a | !'a",
        "d.d.0 | 'd.a.a.d.d.0 | 'd.d.a.a.d.0 | !a | !'a | !'a",
        8,
        3,
        2,
        154,
    ),
]


@pytest.mark.xfail(strict=True, reason="ROADMAP 1a")
@pytest.mark.parametrize("left, right, max_states, depth, tau_bound, states", UNSOUND_REPROS, ids=["A", "B"])
def test_bounded_weak_game_does_not_refute_an_equivalent_pair(left, right, max_states, depth, tau_bound, states):
    p, q = parse(left), parse(right)
    full = decide(p, q, "weak")
    assert (full.outcome, full.stats["states"]) == ("equivalent", states)
    assert decide(p, q, "weak", Bounds(max_states, 64), depth, tau_bound).outcome != "inequivalent"


def test_soundness_sweep_slice_finds_no_unsound_verdict_but_the_pinned_ones():
    unsound = [query for query in sweep.queries(sweep_pairs(sweep.SEED, sweep.SLICE)) if query.unsound]
    assert [query for query in unsound if query.outcome == "equivalent"] == []
    assert [query.case for query in unsound if query.case not in sweep.PINNED] == []


def test_pinned_sweep_cases_are_related_on_their_complete_graphs():
    for left, right, kind, _setting in sweep.PINNED:
        lts = union_lts([parse(left), parse(right)], SWEEP_BOUNDS)
        assert not lts.truncated and relation(lts, kind).relates(lts.initials[0], lts.initials[-1])


@pytest.mark.xfail(strict=True, reason="ROADMAP 1a")
@pytest.mark.parametrize("left, right, kind, setting", sweep.PINNED)
def test_bounded_game_does_not_refute_a_pinned_sweep_pair(left, right, kind, setting):
    max_states, depth, tau_bound = setting
    assert decide(parse(left), parse(right), kind, Bounds(max_states, 64), depth, tau_bound).outcome != "inequivalent"
