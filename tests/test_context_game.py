"""The context game against a frozen reference.

The reference below is the earlier implementation, its game kept verbatim:
its own attacker search, silent closures and output answers, a fresh `safe`
memo per deepening budget and no work counters. Only the verdict it builds
uses the current records: `TraceStep`s, and `unknown` with a bound naming the
depth and tau_bound when it finds nothing. `pcalc.hocore.context_game` plays the
same game through the attacker search shared with the first-order game, and
must give the same verdicts, traces and JSON, apart from the work counters it
adds to the stats.
"""

import random

from pcalc.equivalence import TraceStep
from pcalc.genterms import random_hoccsm
from pcalc.hocore import (
    HoVerdict,
    OpenTermError,
    TestFamilies,
    context_game,
    derived_replication,
    ho_step,
)
from pcalc.syntax import Par, Term, canonicalize, free_vars, parse, term_key

# ---------------------------------------------------------------------------
# Reference implementation (verbatim)


class _HoGame:
    def __init__(self, mode, fam, tau_bound, tau_cap=2048):
        self.mode = mode
        self.fam = fam
        self.tau_bound = tau_bound
        self.tau_cap = tau_cap
        self._moves = {}
        self._closure = {}

    def moves(self, p):
        ms = self._moves.get(p)
        if ms is None:
            ms = ho_step(p, self.fam)
            self._moves[p] = ms
        return ms

    def tau_closure(self, p):
        out = self._closure.get(p)
        if out is not None:
            return out
        seen = {p: 0}
        queue = [p]
        while queue:
            u = queue.pop(0)
            if seen[u] >= self.tau_bound:
                continue
            for a, t in self.moves(u):
                if a.is_tau and t not in seen and len(seen) < self.tau_cap:
                    seen[t] = seen[u] + 1
                    queue.append(t)
        out = tuple(sorted(seen, key=term_key))
        self._closure[p] = out
        return out

    def _matching(self, defn, action):
        """Defender transitions answering the given action shape."""
        if self.mode == "strong":
            if action.is_tau:
                return [t for a, t in self.moves(defn) if a.is_tau]
            if action.kind == "in":
                return [t for a, t in self.moves(defn) if a == action]
            return [(a.payload, t) for a, t in self.moves(defn) if a.kind == "out" and a.name == action.name]
        if action.is_tau:
            return list(self.tau_closure(defn))
        out = []
        seen = set()
        for pre in self.tau_closure(defn):
            for a, mid in self.moves(pre):
                if action.kind == "in" and a == action:
                    for t in self.tau_closure(mid):
                        if t not in seen:
                            seen.add(t)
                            out.append(t)
                elif action.kind == "out" and a.kind == "out" and a.name == action.name:
                    for t in self.tau_closure(mid):
                        if (a.payload, t) not in seen:
                            seen.add((a.payload, t))
                            out.append((a.payload, t))
        return out

    def answers(self, action, deriv, defn, left_is_chal):
        def orient(c, d):
            return (c, d) if left_is_chal else (d, c)

        out = []
        if action.kind in ("tau", "in"):
            for t in self._matching(defn, action):
                out.append(((orient(deriv, t), ""),))
        else:
            payload_a = action.payload
            for payload_b, t in self._matching(defn, action):
                conts = []
                for ctx in self.fam.contexts:
                    ca = canonicalize(Par((ctx.apply(payload_a), deriv)))
                    cb = canonicalize(Par((ctx.apply(payload_b), t)))
                    conts.append((orient(ca, cb), ctx.label()))
                out.append(tuple(conts))
        return out

    def attack(self, l, r, budget, safe):
        if l == r or budget <= 0:
            return None
        if safe.get((l, r), -1) >= budget:
            return None
        options = []
        for side, chal, defn, left_is_chal in (("left", l, r, True), ("right", r, l, False)):
            for action, deriv in self.moves(chal):
                options.append(
                    ((action.sort_key(), 0 if side == "left" else 1, term_key(deriv)), side, action, deriv, defn, left_is_chal)
                )
        options.sort(key=lambda o: o[0])
        for _k, side, action, deriv, defn, left_is_chal in options:
            answers = self.answers(action, deriv, defn, left_is_chal)
            if not answers:
                return [(side, action, None, "")]
            per_answer = []
            ok = True
            for ans in answers:
                chosen = None
                for cont, ctx_label in ans:
                    tail = self.attack(cont[0], cont[1], budget - 1, safe)
                    if tail is not None:
                        chosen = (cont, ctx_label, tail)
                        break
                if chosen is None:
                    ok = False
                    break
                per_answer.append(chosen)
            if ok:
                cont, ctx_label, tail = max(per_answer, key=lambda c: len(c[2]))
                return [(side, action, cont, ctx_label)] + tail
        safe[(l, r)] = budget
        return None


def ref_context_game(p: Term, q: Term, mode: str, depth: int, fam: TestFamilies = None, tau_bound: int = None) -> HoVerdict:
    """Alternating game to the given depth; inputs and contexts range over fam.

    An inequivalence verdict carries a winning attacker strategy over concrete
    payloads and contexts. The converse direction is never claimed.
    """
    if mode not in ("strong", "weak"):
        raise ValueError(f"unknown mode {mode!r}")
    p, q = canonicalize(p), canonicalize(q)
    if free_vars(p) or free_vars(q):
        raise OpenTermError("context game needs closed terms")
    if fam is None:
        fam = TestFamilies.default(p, q)
    if not fam.inputs or not fam.contexts:
        raise ValueError("test families must not be empty")
    if tau_bound is None:
        tau_bound = max(depth, 4)
    game = _HoGame(mode, fam, tau_bound)
    kind = f"context-{mode}"
    found = None
    for budget in range(1, depth + 1):
        found = game.attack(p, q, budget, {})
        if found is not None:
            break
    if found is None:
        bound = {"no_distinction_up_to": depth, "tau_bound": tau_bound}
        return HoVerdict("unknown", kind, families=fam, start=(p, q), bound_report=bound, stats={"depth": depth})
    steps = []
    final = ()
    for side, action, cont, ctx_label in found:
        if cont is None:
            final = (side, action)
            break
        steps.append(TraceStep(side, action, cont, context=ctx_label))
    return HoVerdict(
        "inequivalent", kind, trace=steps, families=fam, start=(p, q), final=final, stats={"depth": depth}
    )


# ---------------------------------------------------------------------------
# Cross-checks

# Fixed here rather than read from PCALC_SEED: the comparison is exact, so
# any seed would do, and a fixed set keeps the cost of the test fixed.
SEED = 7
GAME_STATS = ("game_positions", "memo_hits", "responses", "closures_cut")


def hparse(text):
    return canonicalize(parse(text, dialect="hoccsm"))


def _game_json(verdict):
    """The verdict's JSON less what the reference does not count: the work
    counters, and the cut closures an unknown verdict's bound names, which
    must be the counted ones, with the closure cap."""
    out = verdict.to_json()
    assert set(out["stats"]) == {"depth", *GAME_STATS}
    cut = out["stats"]["closures_cut"]
    for key in GAME_STATS:
        out["stats"].pop(key)
    if "bound" in out:
        assert out["bound"].pop("closures_cut", 0) == cut
        assert out["bound"].pop("closure_cap", None) == (2048 if cut else None)
    return out


def _unfolded_pair():
    body = hparse("'d<0>.0")
    bang = canonicalize(derived_replication(body))
    return bang, canonicalize(Par((bang, body)))


def test_context_game_matches_reference_on_random_pairs():
    # closed random terms rarely move silently; a right side that runs
    # alongside the left one, or a replicated left side, gives the weak
    # defender silent closures to explore, some of them cut at tau_bound 1
    rng = random.Random(SEED)
    outcomes, cut, steps = set(), 0, 0
    checked = 0
    while checked < 60:
        p, q = random_hoccsm(rng, rng.randint(1, 8)), random_hoccsm(rng, rng.randint(1, 5))
        if free_vars(p) or free_vars(q):
            continue
        checked += 1
        depth = rng.randint(1, 3)
        roll = rng.random()
        if roll < 0.3:
            q = Par((p, q))
        elif roll < 0.5:
            p = derived_replication(q)
            q, depth = Par((p, q)), 1
        for mode in ("strong", "weak"):
            for tau_bound in (1, 4):
                new = context_game(p, q, mode, depth, tau_bound=tau_bound)
                ref = ref_context_game(p, q, mode, depth, tau_bound=tau_bound)
                assert _game_json(new) == ref.to_json(), (checked, mode, tau_bound)
                outcomes.add(new.outcome)
                cut += new.stats["closures_cut"] > 0
                steps += bool(new.trace)
    assert outcomes == {"inequivalent", "unknown"}
    assert cut > 0 and steps > 0


def test_context_game_matches_reference_on_replication_pairs():
    bang, unfolded = _unfolded_pair()
    p = hparse("!(a(X).0 | 'a<0>.0)")
    q = hparse("!(a(X).0 | 'a<0>.0) | a(X).0 | 'a<0>.0")
    for left, right, mode, depth, tau_bound in (
        (bang, unfolded, "strong", 4, None),
        (bang, unfolded, "weak", 4, None),
        (bang, unfolded, "weak", 4, 1),
        (p, q, "strong", 4, None),
        (p, q, "weak", 2, 1),
    ):
        new = context_game(left, right, mode, depth, tau_bound=tau_bound)
        ref = ref_context_game(left, right, mode, depth, tau_bound=tau_bound)
        assert _game_json(new) == ref.to_json(), (mode, depth, tau_bound)


def test_context_game_counts_cut_closures():
    # the folded side can always unfold once more, so a weak defender's
    # silent closure of the root is cut at every tau_bound
    bang, unfolded = _unfolded_pair()
    for tau_bound in (1, None):
        weak = context_game(bang, unfolded, "weak", 4, tau_bound=tau_bound)
        assert weak.outcome == "inequivalent"
        assert weak.stats["closures_cut"] >= 1
        assert weak.stats["game_positions"] >= 1 and weak.stats["responses"] >= 1
    # strong answers read no silent closure
    assert context_game(bang, unfolded, "strong", 4).stats["closures_cut"] == 0


def test_an_unknown_context_game_bound_names_the_cut_closures():
    # P and Q reach each other silently, so the weak game finds nothing, and
    # tau_bound 1 cuts the closures of the replicated sides
    p = hparse("!(a(X).0 | 'a<0>.0)")
    q = hparse("!(a(X).0 | 'a<0>.0) | a(X).0 | 'a<0>.0")
    weak = context_game(p, q, "weak", 2, tau_bound=1)
    cut = weak.stats["closures_cut"]
    assert weak.outcome == "unknown" and cut > 0
    assert weak.bound_report == {"no_distinction_up_to": 2, "tau_bound": 1, "closures_cut": cut, "closure_cap": 2048}
    copycat = context_game(p, p, "weak", 2, tau_bound=1)
    assert copycat.outcome == "unknown" and copycat.stats["closures_cut"] == 0
    assert copycat.bound_report == {"no_distinction_up_to": 2, "tau_bound": 1}
