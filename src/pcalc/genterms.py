"""Seeded random generation of terms and graphs for the test suites.

The PCALC_SEED environment variable pins every stream; the default seed is 0.
"""

from __future__ import annotations

import os
import random

from .semantics import Action, Bounds, Lts, build_lts
from .syntax import (
    NIL,
    HoInput,
    HoOutput,
    InputPrefix,
    OutputPrefix,
    Par,
    Repl,
    Term,
    Var,
    canonicalize,
)

NAMES = ("a", "b", "c", "d")


def seed_from_env(offset: int = 0) -> int:
    raw = os.environ.get("PCALC_SEED", "0")
    try:
        base = int(raw)
    except ValueError:
        base = sum(ord(ch) for ch in raw)
    return base + offset


def rng_from_env(offset: int = 0) -> random.Random:
    return random.Random(seed_from_env(offset))


def random_ccsm(rng: random.Random, size: int, allow_repl: bool = True, names=NAMES) -> Term:
    """A raw (not necessarily canonical) first-order term with about `size` nodes."""
    if size <= 1:
        roll = rng.random()
        if roll < 0.25:
            return NIL
        name = rng.choice(names)
        cls = InputPrefix if rng.random() < 0.5 else OutputPrefix
        return cls(name, NIL)
    roll = rng.random()
    if roll < 0.35:
        name = rng.choice(names)
        cls = InputPrefix if rng.random() < 0.5 else OutputPrefix
        return cls(name, random_ccsm(rng, size - 1, allow_repl, names))
    if roll < 0.75 or not allow_repl:
        k = rng.randint(2, 3)
        shares = _split(rng, size - 1, k)
        return Par(tuple(random_ccsm(rng, s, allow_repl, names) for s in shares))
    return Repl(random_ccsm(rng, size - 1, allow_repl, names))


def _split(rng, total, k):
    shares = [1] * k
    for _ in range(max(0, total - k)):
        shares[rng.randrange(k)] += 1
    return shares


def random_hoccsm(rng: random.Random, size: int, scope=(), names=NAMES) -> Term:
    """A raw higher-order term; free variables drawn from scope only."""
    if size <= 1:
        roll = rng.random()
        if scope and roll < 0.30:
            return Var(rng.choice(scope))
        if roll < 0.55:
            return NIL
        name = rng.choice(names)
        if rng.random() < 0.5:
            return HoOutput(name, NIL, NIL)
        var = f"X{len(scope)}"
        return HoInput(name, var, NIL)
    roll = rng.random()
    if roll < 0.30:
        name = rng.choice(names)
        var = f"X{len(scope)}"
        return HoInput(name, var, random_hoccsm(rng, size - 1, scope + (var,), names))
    if roll < 0.55:
        name = rng.choice(names)
        msize = max(1, (size - 1) // 2)
        msg = random_hoccsm(rng, msize, scope, names)
        return HoOutput(name, msg, random_hoccsm(rng, size - 1 - msize, scope, names))
    k = rng.randint(2, 3)
    shares = _split(rng, size - 1, k)
    return Par(tuple(random_hoccsm(rng, s, scope, names) for s in shares))


def random_stabilizing(rng: random.Random, names=NAMES) -> Term:
    """Parallel mix of single-prefix replications and a small plain part.

    Replication is applied to bare prefixes only, so unfoldings collapse back
    onto the same state and the graph stays finite while still diverging when
    complementary replicated prefixes meet.
    """
    parts = []
    for _ in range(rng.randint(1, 3)):
        name = rng.choice(names)
        guard = InputPrefix(name, NIL) if rng.random() < 0.5 else OutputPrefix(name, NIL)
        parts.append(Repl(guard))
    if rng.random() < 0.85:
        parts.append(random_ccsm(rng, rng.randint(2, 6), allow_repl=False, names=names))
    return Par(tuple(parts))


def finite_state_corpus(rng: random.Random, count: int, max_states: int = 200, max_depth: int = 64):
    """Canonical terms whose bounded graphs complete within max_states states,
    mixing replication-free terms with self-stabilizing replication patterns."""
    out = []
    seen = set()
    bounds = Bounds(max_states, max_depth)
    while len(out) < count:
        if rng.random() < 0.5:
            cand = random_ccsm(rng, rng.randint(2, 9), allow_repl=False)
        else:
            cand = random_stabilizing(rng)
        term = canonicalize(cand)
        if term in seen:
            continue
        lts = build_lts(term, bounds)
        if lts.truncated:
            continue
        seen.add(term)
        out.append(term)
    return out


def random_graph_lts(rng: random.Random, max_states: int = 50, names=("a", "b")) -> Lts:
    """A random labeled graph packaged as a complete Lts.

    States carry distinct placeholder terms; only the graph structure matters
    to the checkers, so this exercises them on shapes real terms rarely take.
    """
    n = rng.randint(2, max_states)
    actions = [Action("tau")]
    for nm in names:
        actions.append(Action("in", nm))
        actions.append(Action("out", nm))
    edges = set()
    m = rng.randint(n, min(3 * n, n + 60))
    for _ in range(m):
        s = rng.randrange(n)
        t = rng.randrange(n)
        a = rng.choice(actions)
        edges.add((s, a, t))
    edges = sorted(edges, key=lambda e: (e[0], e[1].sort_key(), e[2]))
    states = [canonicalize(InputPrefix(f"s{i}", NIL)) for i in range(n)]
    return Lts(states, edges, (0,), frozenset())
