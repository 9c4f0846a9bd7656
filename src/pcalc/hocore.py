"""Higher-order semantics: substitution, derived replication, transitions
with process payloads, and the moves of a bounded context-bisimulation game
played by the attacker search of `equivalence`.

The input rule is infinitely branching, so visible input transitions are
instantiated over a finite test family; communication always transmits the
actual payload. Because the output clause quantifies over all receiving
contexts, equivalence is never claimed: verdicts are either a concrete
refutation or `unknown`, naming the depth and `tau_bound` that cut the game.
"""

from __future__ import annotations

import functools
from typing import Optional

from .equivalence import AttackerTrace, TraceStep, Verdict, _Game, _game_tau_bound
from .semantics import TAU, Action, SilentClosures
from .syntax import (
    NIL,
    GuardedRepl,
    HoInput,
    HoOutput,
    Nil,
    Par,
    Record,
    Repl,
    Term,
    Var,
    canonical_par,
    canonicalize,
    free_vars,
    fresh_name,
    is_closed,
    names,
    render,
    subterms,
    term_key,
)


class OpenTermError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Substitution


def ho_subst(p: Term, x: str, a: Term) -> Term:
    """P{A/X} for closed A, canonicalized. Binders shadowing x are left alone."""
    if not is_closed(a):
        raise OpenTermError(f"payload must be closed: {render(a)}")
    return canonicalize(_subst(p, x, a))


def _subst(p: Term, x: str, a: Term) -> Term:
    if isinstance(p, Var):
        return a if p.name == x else p
    if isinstance(p, Nil):
        return p
    if isinstance(p, HoInput):
        if p.var == x:
            return p
        return HoInput(p.channel, p.var, _subst(p.body, x, a))
    if isinstance(p, HoOutput):
        return HoOutput(p.channel, _subst(p.message, x, a), _subst(p.cont, x, a))
    if isinstance(p, Par):
        return Par(tuple(_subst(q, x, a) for q in p.parts))
    raise TypeError(f"not a higher-order term: {p!r}")


# ---------------------------------------------------------------------------
# Derived replication
#
#   !P      =  'c<Q>.0 | Q      where Q = c(X).('c<X>.0 | X | P)
#   !g f.P  =  'c<Q>.0 | Q      where Q = c(X).(f.('c<X>.0 | X | P))
#
# c is a replicator name, chosen fresh deterministically as the first of
# c0, c1, ... not occurring in the subject term nor in the avoid set, and X
# the first of X, X0, X1, ... that no variable or binder there names.


def derived_replication(p: Term) -> Term:
    """Replication encoding of closed p."""
    if free_vars(p):
        raise OpenTermError(f"replication body must be closed: {render(p)}")
    return _build_replication(p, None, ())


def _build_replication(p: Term, guard: Optional[Term], avoid) -> Term:
    """guard carries the prefix of the guarded form (an input or output node
    whose own continuation is ignored)."""
    terms = (p,) if guard is None else (p, guard)
    c = fresh_name("c", {"c"}.union(avoid, *map(names, terms)))  # c0, c1, ...
    subs = [sub for t in terms for sub in subterms(t)]
    taken = {t.name for t in subs if isinstance(t, Var)} | {t.var for t in subs if isinstance(t, HoInput)}
    x = fresh_name("X", taken)
    inner = Par((HoOutput(c, Var(x), NIL), Var(x), p))
    if guard is None:
        body = inner
    elif isinstance(guard, HoInput):
        body = HoInput(guard.channel, guard.var, inner)
    elif isinstance(guard, HoOutput):
        body = HoOutput(guard.channel, guard.message, inner)
    else:
        raise TypeError(f"guard must be a prefix: {guard!r}")
    q = HoInput(c, x, body)
    return Par((HoOutput(c, q, NIL), q))


def expand_replications(term: Term) -> Term:
    """Replace every replication macro in a parsed higher-order term.

    Expansion runs bottom-up, left to right; every expansion avoids all names
    seen so far, so distinct macros get distinct replicator names c0, c1, ...
    """
    used = set(names(term))

    def walk(t):
        if isinstance(t, (Nil, Var)):
            return t
        if isinstance(t, HoInput):
            return HoInput(t.channel, t.var, walk(t.body))
        if isinstance(t, HoOutput):
            return HoOutput(t.channel, walk(t.message), walk(t.cont))
        if isinstance(t, Par):
            return Par(tuple(walk(q) for q in t.parts))
        if isinstance(t, Repl):
            body = walk(t.body)
            exp = _build_replication(body, None, used)
            used.update(names(exp))
            return exp
        if isinstance(t, GuardedRepl):
            pre = t.prefix
            if isinstance(pre, HoInput):
                guard, body = HoInput(pre.channel, pre.var, NIL), walk(pre.body)
            else:
                guard, body = HoOutput(pre.channel, walk(pre.message), NIL), walk(pre.cont)
            exp = _build_replication(body, guard, used)
            used.update(names(exp))
            return exp
        raise TypeError(f"not a higher-order term: {t!r}")

    return walk(term)


# ---------------------------------------------------------------------------
# Test families


class Context(Record, frozen=True):
    """A term with hole occurrences, encoded as free occurrences of X."""

    _fields = ("term",)

    def __init__(self, term: Term):
        object.__setattr__(self, "term", term)

    def apply(self, a: Term) -> Term:
        return ho_subst(self.term, "X", a)

    def label(self) -> str:
        return render(_subst(self.term, "X", Var("[.]")), compact=True)


class TestFamilies(Record):
    """Finite stand-ins for the quantifiers of the context-bisimulation game.

    inputs instantiate received payloads; contexts close the output clause.
    Both always contain the identity/degenerate members and fresh-name
    triggers, so refutations found with them are genuine.
    """

    __test__ = False  # not a pytest class
    _fields = ("inputs", "contexts")

    def __init__(self, inputs: tuple, contexts: tuple):
        self.inputs = inputs
        self.contexts = contexts

    @staticmethod
    def default(p: Term, q: Term) -> "TestFamilies":
        m = fresh_name("m", names(p) | names(q))
        payloads = []
        seen = set()
        for t in (p, q):
            for sub in subterms(t):
                if isinstance(sub, HoOutput):
                    msg = canonicalize(sub.message)
                    if not free_vars(sub.message) and msg not in seen:
                        seen.add(msg)
                        payloads.append(msg)
        payloads.sort(key=term_key)
        trigger_in = canonicalize(HoInput(m, "X", NIL))
        trigger_out = canonicalize(HoOutput(m, NIL, NIL))
        inputs = [NIL] + [t for t in payloads if t != NIL] + [trigger_in, trigger_out]
        hole = Var("X")
        contexts = (
            Context(hole),
            Context(Par((hole, HoInput(m, "Y", NIL)))),
            Context(Par((hole, HoOutput(m, NIL, NIL)))),
            Context(Par((HoInput(m, "Y", NIL), hole))),
            Context(Par((hole, hole))),
        )
        return TestFamilies(tuple(dict.fromkeys(inputs)), contexts)

    def to_json(self) -> dict:
        return {
            "inputs": [render(t, compact=True) for t in self.inputs],
            "contexts": [c.label() for c in self.contexts],
        }


# ---------------------------------------------------------------------------
# Transitions


def ho_step(p: Term, fam: TestFamilies):
    """Transitions of a closed canonical term; inputs range over fam.inputs,
    communication uses the actual transmitted payload."""
    p = canonicalize(p)
    if free_vars(p):
        raise OpenTermError(f"term must be closed: {render(p)}")
    moves = set()
    _ho_moves(p, fam, moves)
    return tuple(sorted(moves, key=lambda m: (m[0].sort_key(), term_key(m[1]))))


def _ho_moves(p: Term, fam: TestFamilies, moves: set):
    if isinstance(p, Nil):
        return
    if isinstance(p, HoInput):
        for a in fam.inputs:
            moves.add((Action("in", p.channel, a), ho_subst(p.body, p.var, a)))
        return
    if isinstance(p, HoOutput):
        moves.add((Action("out", p.channel, canonicalize(p.message)), canonicalize(p.cont)))
        return
    if isinstance(p, Par):
        # Copies of one part, alike up to their binder numbers, reach the
        # same targets, so each distinct part steps once, at its first position.
        parts = p.parts
        first = {}
        for i, part in enumerate(parts):
            first.setdefault(canonicalize(part), i)
        for part, i in first.items():
            sub = set()
            _ho_moves(part, fam, sub)
            for act, t in sub:
                moves.add((act, canonical_par(parts[:i] + (t,) + parts[i + 1 :])))
        for recv, i in first.items():
            if not isinstance(recv, HoInput):
                continue
            for send, j in first.items():
                if not isinstance(send, HoOutput) or recv.channel != send.channel:
                    continue
                ti = ho_subst(recv.body, recv.var, canonicalize(send.message))
                repl = list(parts)
                repl[i], repl[j] = ti, send.cont
                moves.add((TAU, canonical_par(repl)))
        return
    raise TypeError(f"not a closed higher-order term: {p!r}")


# ---------------------------------------------------------------------------
# Bounded context-bisimulation game


class HoVerdict(Record):
    """A context game's verdict. It renders as a `Verdict` with an
    `AttackerTrace`, plus the test families it used; its own trace lists
    the steps before the final challenge."""

    _fields = ("outcome", "kind", "trace", "families", "start", "final", "bound_report", "stats")

    def __init__(self, outcome: str, kind: str, trace: Optional[list] = None, families: TestFamilies = None,
                 start: tuple = (), final: tuple = (), bound_report: Optional[dict] = None,
                 stats: Optional[dict] = None):
        self.outcome = outcome  # 'inequivalent' | 'unknown'
        self.kind = kind  # 'context-strong' | 'context-weak'
        self.trace = trace
        self.families = families
        self.start = start
        self.final = final  # (side, action) of the unanswered challenge
        self.bound_report = bound_report
        self.stats = {} if stats is None else stats

    def to_json(self) -> dict:
        trace = None
        if self.trace is not None:
            trace = AttackerTrace(self.kind, self.start, tuple(self.trace), "no-match", *self.final)
        out = Verdict(self.outcome, self.kind, trace=trace, bound_report=self.bound_report, stats=self.stats).to_json()
        out["equivalence_claimed"] = False
        out["families_used"] = self.families.to_json()
        return out


class _ContextGame(_Game):
    """The context-bisimulation game over a test family.

    A response is the defender's matching (action, target). An output is
    answered by any output on its channel; the game then goes on under every
    context of the family, each side's payload plugged in next to its
    continuation, and each such continuation is labelled with its context.
    """

    challenge_order = staticmethod(lambda ch: (ch[1].sort_key(), ch[0]))

    def __init__(self, mode, fam, tau_bound):
        step = functools.lru_cache(maxsize=None)(lambda p: ho_step(p, fam))
        super().__init__(SilentClosures(step, tau_bound, 2048))
        self.mode, self.fam = mode, fam

    def respond(self, defn, action):
        def matches(a):
            return a == action or a.kind == action.kind == "out" and a.name == action.name

        if self.mode == "strong":
            return tuple((a, t) for a, t in self.step(defn) if matches(a)), False
        if action.is_tau:
            pres, complete = self.closures[defn].states()
            return tuple((TAU, t) for t in pres), not complete
        moves, complete = self.closures.weak_moves(defn, matches)
        return moves, not complete

    def answer(self, response, chal, action, deriv):
        a, t = response
        if action.kind != "out":
            return (((deriv, t), ""),)
        return (
            ((canonical_par((c.apply(action.payload), deriv)), canonical_par((c.apply(a.payload), t))), c.label())
            for c in self.fam.contexts
        )


def context_game(p: Term, q: Term, mode: str, depth: int, fam: TestFamilies = None, tau_bound: int = None) -> HoVerdict:
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
    tau_bound = _game_tau_bound(depth, tau_bound)
    found, bound, stats = _ContextGame(mode, fam, tau_bound).play(p, q, depth)
    kind = f"context-{mode}"
    if found is None:
        return HoVerdict("unknown", kind, families=fam, start=(p, q), bound_report=bound, stats=stats)
    *moves, final = found  # the final challenge: (side, action, None, None)
    steps = [TraceStep(side, action, cont, context=label) for side, action, cont, label in moves]
    return HoVerdict("inequivalent", kind, steps, fam, (p, q), final[:2], stats=stats)

