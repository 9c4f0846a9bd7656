"""Certificates and counterexample evidence.

A certificate is a finite candidate relation checked against the up-to-context
discipline: every transition of one side must be answered weakly by the other
so that, after stripping a common parallel context, the residues are again in
the relation or syntactically equal. A certified relation is contained in weak
bisimilarity, so certification is a sound equivalence proof even for
infinite-state terms. The checker runs over the part-id states of the one
`semantics._States` table, as exploration and the bounded game do: answers
are int-coded moves and a context is a common sub-multiset of two states'
sorted part ids.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections import Counter
from typing import Optional

from . import equivalence, semantics
from .equivalence import AttackerTrace, extract_trace
from .semantics import Action, Lts, SilentClosures, silent_run
from .syntax import Record, Term, canonicalize, parse, render


class ReplayError(AssertionError):
    pass


# ---------------------------------------------------------------------------
# Certificates


class Certificate(Record):
    _fields = ("pairs", "discipline", "closure_budget")

    def __init__(self, pairs: tuple, discipline: str = "upto-context", closure_budget: int = 256):
        if discipline not in ("plain", "upto-context"):
            raise ValueError(f"unknown discipline {discipline!r}")
        if closure_budget < 1:
            raise ValueError("closure budget must be positive")
        self.pairs = tuple((canonicalize(p), canonicalize(q)) for p, q in pairs)  # ((Term, Term), ...)
        self.discipline = discipline  # 'plain' | 'upto-context'
        self.closure_budget = closure_budget

    @staticmethod
    def from_json(data: dict) -> "Certificate":
        """Reads a certificate file's JSON; ValueError unless it is an object
        whose pairs is a list of [term, term] lists and whose budget, if any,
        is an integer."""
        pairs = data.get("pairs") if isinstance(data, dict) else None
        if not (isinstance(pairs, list) and all(type(p) is list and list(map(type, p)) == [str, str] for p in pairs)):
            raise ValueError("a certificate is an object whose pairs is a list of [term, term] lists")
        budget = data.get("budget", 256)
        if not isinstance(budget, (int, str)):
            raise ValueError("a certificate's budget must be an integer")
        pairs = tuple((parse(a), parse(b)) for a, b in pairs)
        return Certificate(pairs, discipline=data.get("discipline", "upto-context"), closure_budget=int(budget))

    def to_json(self) -> dict:
        return {
            "discipline": self.discipline,
            "budget": self.closure_budget,
            "pairs": [[render(p, compact=True), render(q, compact=True)] for p, q in self.pairs],
        }


class Obligation(Record):
    _fields = ("pair", "direction", "action", "derivative", "answer", "context", "via")

    def __init__(self, pair: tuple, direction: str, action: Action, derivative: Term, answer: Optional[Term],
                 context: Optional[Term], via: str):
        self.pair = pair
        self.direction = direction  # which side fired the challenge
        self.action = action
        self.derivative = derivative
        self.answer = answer
        self.context = context  # the stripped parallel part; None means [.]
        self.via = via  # 'equal' | 'pair'

    def to_json(self) -> dict:
        ctx = "[.]" if self.context is None else render(self.context, compact=True) + " | [.]"
        return {
            "pair": [render(self.pair[0], compact=True), render(self.pair[1], compact=True)],
            "direction": self.direction,
            "action": self.action.label(),
            "derivative": render(self.derivative, compact=True),
            "answer": render(self.answer, compact=True) if self.answer is not None else None,
            "context": ctx,
            "via": self.via,
        }


class CertResult(Record):
    _fields = ("outcome", "obligations", "failure")

    def __init__(self, outcome: str, obligations: list, failure: Optional[dict] = None):
        self.outcome = outcome  # 'certified' | 'refuted' | 'budget-exhausted'
        self.obligations = obligations
        self.failure = failure

    def to_json(self) -> dict:
        out = {
            "outcome": self.outcome,
            "obligations": [o.to_json() for o in self.obligations],
        }
        if self.failure is not None:
            out["failure"] = self.failure
        return out


def _weak_answers(closures: SilentClosures, q: int, action: int):
    """State q's weak answers to an action id, lazily, closest first, at most
    closures.cap of them; and a function that tells, once they are drained,
    whether they are all of them."""
    used = [closures[q]]
    capped = False

    def answers():
        nonlocal capped
        if not action:
            yield from used[0]
            return
        emitted = set()
        for u in used[0]:
            for v in [v for a, v in closures.step(u) if a == action]:
                post = closures[v]
                used.append(post)
                for w in post:
                    if w not in emitted:
                        emitted.add(w)
                        yield w
                    if len(emitted) >= closures.cap:
                        capped = True
                        return

    return answers(), lambda: not capped and all(c.states()[1] for c in used)


def _strip_candidates(x: tuple, y: tuple, discipline: str):
    """Residue pairs of part-id states x and y after removing a common
    sub-multiset of their parts, the largest first.

    Yields (context, residue_x, residue_y), all sorted part-id tuples:
    parallel contexts T | [.], with T = 0, the empty context, first, which is
    plain matching. Part ids follow term order, so the candidates come in the
    order of the contexts' parts as terms.
    """
    yield (), x, y
    if discipline != "upto-context":
        return
    cx, cy = Counter(x), Counter(y)
    common = sorted((cx & cy).items())
    vectors = sorted(itertools.product(*[range(count, -1, -1) for _q, count in common]), key=lambda v: (-sum(v), v))
    for vec in vectors:
        if any(vec):
            taken = Counter({q: k for (q, _c), k in zip(common, vec)})
            rx, ry = (tuple(sorted((c - taken).elements())) for c in (cx, cy))
            yield tuple(sorted(taken.elements())), rx, ry


def check_certificate(cert: Certificate) -> CertResult:
    """Discharge every transition obligation of every pair, both directions.

    The checker plays over the part-id states of one `semantics._States`
    table of the pairs' parts, and builds terms only for its obligations and
    failure. Refuted only when the weak-answer search space was exhausted
    within the budget; a capped search that found nothing is budget
    exhaustion, not a refutation.
    """
    states = semantics._States([side for pair in cert.pairs for side in pair])
    keys, acts = states.tuples, states.parts.actions
    ids = [tuple(map(states.state, pair)) for pair in cert.pairs]
    rel = {(keys[i], keys[j]) for p, q in ids for i, j in ((p, q), (q, p))}
    closures = SilentClosures(states.step, None, cert.closure_budget, 0, states.order)
    obligations = []
    exhausted = False
    for pair, (p, q) in zip(cert.pairs, ids):
        flags = [silent_run(states.parts, keys[side], {}) for side in (p, q)]
        if {flags[0], flags[1]} == {semantics.DIV_YES, semantics.DIV_NO}:
            pair_text = [render(side, compact=True) for side in pair]
            failure = {"pair": pair_text, "reason": "divergence-mismatch", "flags": flags}
            return CertResult("refuted", obligations, failure=failure)
        if semantics.DIV_UNKNOWN in flags:
            exhausted = True
        for chal, defn, direction in ((p, q, "left"), (q, p, "right")):
            for action, deriv in states.step(chal):
                candidates, completeness = _weak_answers(closures, defn, action)
                found = None
                for answer in candidates:
                    for ctx, rx, ry in _strip_candidates(keys[deriv], keys[answer], cert.discipline):
                        via = "equal" if rx == ry else "pair" if (rx, ry) in rel else None
                        if via is not None:
                            context = states.parts.term(ctx) if ctx else None
                            found = Obligation(pair, direction, acts[action], states[deriv], states[answer], context, via)
                            break
                    if found is not None:
                        break
                if found is not None:
                    obligations.append(found)
                elif completeness():
                    return CertResult(
                        "refuted",
                        obligations,
                        failure={
                            "pair": [render(pair[0], compact=True), render(pair[1], compact=True)],
                            "direction": direction,
                            "action": acts[action].label(),
                            "derivative": render(states[deriv], compact=True),
                            "reason": "no-answer",
                        },
                    )
                else:
                    exhausted = True
    if exhausted:
        return CertResult("budget-exhausted", obligations)
    return CertResult("certified", obligations)


# ---------------------------------------------------------------------------
# Modal distinguishing formulas (diamond, conjunction, negation)


class TrueF(Record, frozen=True):
    pass


class DiamondF(Record, frozen=True):
    _fields = ("action", "sub")

    def __init__(self, action: Action, sub: object):
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "sub", sub)


class AndF(Record, frozen=True):
    _fields = ("subs",)

    def __init__(self, subs: tuple):
        object.__setattr__(self, "subs", subs)


class NotF(Record, frozen=True):
    _fields = ("sub",)

    def __init__(self, sub: object):
        object.__setattr__(self, "sub", sub)


def formula_str(f) -> str:
    if isinstance(f, TrueF):
        return "tt"
    if isinstance(f, DiamondF):
        return f"<{f.action.label()}>{formula_str(f.sub)}"
    if isinstance(f, AndF):
        if not f.subs:
            return "tt"
        return "(" + " & ".join(formula_str(s) for s in f.subs) + ")"
    if isinstance(f, NotF):
        return "~" + formula_str(f.sub)
    raise TypeError(f"not a formula: {f!r}")


def satisfies(lts: Lts, s: int, f) -> bool:
    if isinstance(f, TrueF):
        return True
    if isinstance(f, DiamondF):
        return any(a == f.action and satisfies(lts, t, f.sub) for a, t in lts.succ(s))
    if isinstance(f, AndF):
        return all(satisfies(lts, s, sub) for sub in f.subs)
    if isinstance(f, NotF):
        return not satisfies(lts, s, f.sub)
    raise TypeError(f"not a formula: {f!r}")


def distinguishing_formula(lts: Lts, s: int, t: int):
    """Formula true at s and false at t, from divergence-blind strong
    refinement rounds, read off its split forest (`round_block_of`); None
    when only divergence separates the states. The refinement is memoised on
    the graph."""
    key = ("strong", "divergence-blind")
    part = lts.partitions.get(key)
    if part is None:
        part = lts.partitions[key] = equivalence._refine(lts, "strong", [0] * lts.num_states())
    if part.relates(s, t):
        return None
    round_block_of = functools.lru_cache(maxsize=None)(part.round_block_of)

    def build(u, v):
        if part.relates(u, v):
            raise AssertionError("states not separated")
        blk = round_block_of(part.separation_round(u, v) - 1)
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


# ---------------------------------------------------------------------------
# Distinguishing evidence


class Evidence(Record):
    _fields = ("trace", "formula")

    def __init__(self, trace: AttackerTrace, formula: object = None):
        self.trace = trace
        self.formula = formula

    def to_json(self) -> dict:
        out = {"trace": self.trace.to_json()}
        if self.formula is not None:
            out["formula"] = formula_str(self.formula)
        return out


def distinguishing_evidence(lts: Lts, s: int, t: int, kind: str) -> Evidence:
    """The replayed `extract_trace` of a pair, which raises as it does; for
    the strong kind a checked modal distinguishing formula too, if one exists."""
    trace = extract_trace(lts, kind, (s, t))
    replay_trace(trace, tau_bound=lts.num_states())
    formula = distinguishing_formula(lts, s, t) if kind == "strong" else None
    if formula is not None:
        if not satisfies(lts, s, formula) or satisfies(lts, t, formula):
            raise ReplayError("formula does not separate the pair")
    return Evidence(trace, formula)


# ---------------------------------------------------------------------------
# Trace replay
#
# Traces carry canonical terms, so they replay without the graph they were
# extracted from: through the bounded game between the trace's start terms,
# with every term mapped to that game's state id and every action to its
# action id.


def replay_trace(trace: AttackerTrace, tau_bound: int = 8) -> bool:
    """Checks a first-order attacker trace against the transitions of its
    terms: every challenge is a transition, every defender answer one of the
    bounded game's continuations for it (closures cut after tau_bound silent
    steps), and the final challenge is unanswerable or the final pair differs
    in divergence. Raises ReplayError otherwise."""
    game = equivalence._OnTheFly(trace.kind, tau_bound, trace.start)
    action_id = {a: i for i, a in enumerate(game.states.parts.actions)}
    cur = tuple(game.state(t) for t in trace.start)
    for st in trace.steps:
        # a term holding a part the start never reaches has state None, which
        # is no step's target and no legal continuation
        after = tuple(game.state(t) for t in st.after)
        (chal, defn), (moved, answer) = (cur, after) if st.side == "left" else (cur[::-1], after[::-1])
        action = action_id.get(st.action)  # None, no id, when no part offers it
        targets = [t for a, t in game.step(chal) if a == action]
        # a rolled-back continuation keeps the challenger in place
        if not targets or not st.rolled_back and moved not in targets:
            moved_term = st.after[0] if st.side == "left" else st.after[1]
            to = "" if st.rolled_back else f" to {render(canonicalize(moved_term))}"
            raise ReplayError(f"challenger has no {st.action.label()} step{to}")
        legal = {c for r in game.responses(defn, action) for c in game.answer(r, chal, action, moved)}
        if ((moved, answer), st.rolled_back) not in legal:
            raise ReplayError("defender answer is not a legal continuation")
        cur = after
    if trace.reason == "no-match":
        chal, defn = cur if trace.final_side == "left" else cur[::-1]
        action = action_id.get(trace.final_action)
        if not any(a == action for a, _t in game.step(chal)):
            raise ReplayError("final challenge is not a real transition")
        if game.responses(defn, action):
            raise ReplayError("defender still has an answer to the final challenge")
    else:
        flags = {silent_run(game.states.parts, game.states.tuples[side], {}) for side in cur}
        if flags != {semantics.DIV_YES, semantics.DIV_NO}:
            raise ReplayError("terminal pair does not mismatch on divergence")
    return True


# ---------------------------------------------------------------------------
# Certificate files


def load_certificate(path: str) -> Certificate:
    with open(path, "r", encoding="utf-8") as fh:
        return Certificate.from_json(json.load(fh))
