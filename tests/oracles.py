"""Independent reference implementations used only to cross-check the package,
and the seeded corpora the suites check it on.

The step oracle matches the derivation rules literally on a binary reading of
parallel composition; the relation oracle is a plain greatest-fixpoint
deletion over all state pairs, one literal clause per equivalence. Both stay
deliberately naive and share no code with the checked paths.
"""

import random

from pcalc.genterms import random_ccsm, random_stabilizing
from pcalc.semantics import TAU, Action, Bounds, Lts, build_lts
from pcalc.syntax import (
    NIL,
    InputPrefix,
    Nil,
    OutputPrefix,
    Par,
    Repl,
    canonicalize,
)


def naive_step(p):
    """Transition set by direct rule matching, Par treated as nested binary."""
    if isinstance(p, Nil):
        return set()
    if isinstance(p, InputPrefix):
        return {(Action("in", p.name), canonicalize(p.cont))}
    if isinstance(p, OutputPrefix):
        return {(Action("out", p.name), canonicalize(p.cont))}
    if isinstance(p, Repl):
        inner = naive_step(p.body)
        out = set()
        for act, t in inner:
            out.add((act, canonicalize(Par((t, p)))))
        for a1, t1 in inner:
            if a1.kind != "in":
                continue
            for a2, t2 in inner:
                if a2.kind == "out" and a2.name == a1.name:
                    out.add((TAU, canonicalize(Par((t1, Par((t2, p)))))))
        return out
    if isinstance(p, Par):
        if len(p.parts) == 0:
            return set()
        if len(p.parts) == 1:
            return naive_step(p.parts[0])
        left = p.parts[0]
        right = p.parts[1] if len(p.parts) == 2 else Par(p.parts[1:])
        lmoves = naive_step(left)
        rmoves = naive_step(right)
        out = set()
        for act, t in lmoves:
            out.add((act, canonicalize(Par((t, right)))))
        for act, t in rmoves:
            out.add((act, canonicalize(Par((left, t)))))
        for a1, t1 in lmoves:
            if a1.is_tau:
                continue
            comp = a1.complement()
            for a2, t2 in rmoves:
                if a2 == comp:
                    out.add((TAU, canonicalize(Par((t1, t2)))))
        return out
    raise TypeError(f"not a first-order term: {p!r}")


def naive_explore(p, max_states=4000):
    """States and edges reachable from p, using the step oracle only."""
    root = canonicalize(p)
    states = {root}
    edges = set()
    frontier = [root]
    while frontier:
        s = frontier.pop()
        for a, t in naive_step(s):
            edges.add((s, a, t))
            if t not in states:
                if len(states) >= max_states:
                    raise RuntimeError("oracle exploration exceeded its cap")
                states.add(t)
                frontier.append(t)
    return states, edges


def _tau_reach(lts):
    reach = []
    for s in range(lts.num_states()):
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for a, t in lts.succ(u):
                if a.is_tau and t not in seen:
                    seen.add(t)
                    stack.append(t)
        reach.append(seen)
    return reach


def naive_relation(lts, kind):
    """Largest divergence-sensitive kind-bisimulation by pair deletion,
    returned as its pairs (i, j) with i < j."""
    n = lts.num_states()
    reach = _tau_reach(lts)

    def delay(q, a):
        return [t for m in reach[q] for b, t in lts.succ(m) if b == a]

    def bpairs(q, a):
        return [(m, t) for m in reach[q] for b, t in lts.succ(m) if b == a]

    def weak(q, a):
        if a.is_tau:
            return list(reach[q])
        out = []
        for m in reach[q]:
            for b, t in lts.succ(m):
                if b == a:
                    out.extend(reach[t])
        return out

    R = {(i, j) for i in range(n) for j in range(n) if lts.diverges[i] == lts.diverges[j]}
    changed = True
    while changed:
        changed = False
        for p, q in sorted(R):
            ok = True
            for pp, qq in ((p, q), (q, p)):
                for a, d in lts.succ(pp):
                    if kind == "strong":
                        good = any(b == a and (d, t) in R for b, t in lts.succ(qq))
                    elif kind == "weak":
                        good = any((d, t) in R for t in weak(qq, a))
                    elif kind == "quasi-strong":
                        if a.is_tau:
                            good = any(b.is_tau and (d, t) in R for b, t in lts.succ(qq))
                        else:
                            good = any((d, t) in R for t in delay(qq, a))
                    elif kind == "branching":
                        good = (a.is_tau and (d, qq) in R) or any(
                            (pp, m) in R and (d, t) in R for m, t in bpairs(qq, a)
                        )
                    elif kind == "qs-branching":
                        if a.is_tau:
                            good = any(b.is_tau and (d, t) in R for b, t in lts.succ(qq))
                        else:
                            good = any((pp, m) in R and (d, t) in R for m, t in bpairs(qq, a))
                    else:
                        raise ValueError(kind)
                    if not good:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                R.discard((p, q))
                R.discard((q, p))
                changed = True
    return frozenset((p, q) for p, q in R if p < q)


# ---------------------------------------------------------------------------
# Seeded corpora


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


# The soundness sweep's pairs (ROADMAP item 13, `sweep.py`): terms whose
# chains are long enough for a cut closure to hide a defender answer.
SWEEP_BOUNDS = Bounds(3000, 64)


def sweep_term(rng: random.Random):
    """1-3 prefix chains of length 1-8 over a, 'a, d and 'd, the replicated
    pairs !x | !'x for a, d or both, and for half the terms one more
    replicated prefix; canonical."""

    def prefix(cont):
        return rng.choice((InputPrefix, OutputPrefix))(rng.choice("ad"), cont)

    parts = []
    for _ in range(rng.randint(1, 3)):
        chain = NIL
        for _ in range(rng.randint(1, 8)):
            chain = prefix(chain)
        parts.append(chain)
    for x in rng.choice(("a", "d", "ad")):
        parts += [Repl(InputPrefix(x, NIL)), Repl(OutputPrefix(x, NIL))]
    if rng.random() < 0.5:
        parts.append(Repl(prefix(NIL)))
    return canonicalize(Par(tuple(parts)))


def sweep_pairs(seed: int, count: int):
    """count (p, q) pairs drawn from Random(seed): p a sweep term whose graph
    completes within `SWEEP_BOUNDS`, q a random state of that graph (70%) or
    a fresh sweep term."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = sweep_term(rng)
        lts = build_lts(p, SWEEP_BOUNDS)
        if lts.truncated:
            continue
        q = lts.states[rng.randrange(lts.num_states())] if rng.random() < 0.7 else sweep_term(rng)
        out.append((p, q))
    return out
