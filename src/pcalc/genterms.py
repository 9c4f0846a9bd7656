"""Seeded random generation of terms for the test suites and the CLI's probe.

The PCALC_SEED environment variable pins every stream; the default seed is 0.
"""

from __future__ import annotations

import os
import random

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
