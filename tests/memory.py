"""Memory probe: what pcalc's searches keep and what they pass through,
traced with tracemalloc.

It prints, in MiB:

- the memory each bounded game retains after `play`, with the game still
  alive and the process-wide caches already filled: the three depth-7
  games on the growth pair of the `bounded-games` workload, and the weak
  depth-4 context game on `'d<0>.0` against its derived replication;
- on the W2 variant of the `finite-large` workload, the peak above the live
  graph of each partition kind, refined in the workload's order (the tau
  classification's weak partition first), and of one read of `lts.edges`.

Usage, from the repository root:

    PYTHONPATH=src python tests/memory.py
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

from pcalc import equivalence, hocore
from pcalc.equivalence import compute_partition
from pcalc.semantics import Bounds, build_lts
from pcalc.syntax import Par, canonicalize, parse

# the benchmark's terms (bench/workloads.py)
GROWTH = ("!c.d | !'c | d", "!c.d | !'c | !c")
W2_VARIANT = "a.b.'c.d.e | 'a.'b.c.'d.'e | b.a.'d.c | 'b.'a.d.'c | 'e.e | !f | !'f"
MIB = 2**20
GAME_KINDS = ("weak", "branching", "quasi-strong")
CONTEXT_BODY = "'d<0>.0"


def _retained(build) -> float:
    """MiB that a second build() allocates and its result still holds. The
    first build fills the process-wide caches (interned terms, memoised
    steps), so the reading is what the result itself keeps; earlier garbage
    is collected for the same reason."""
    build()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = build()  # alive while the reading is taken
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / MIB


def growth_game_retained(kind: str) -> float:
    """MiB that the growth pair's depth-7 `_OnTheFly` game retains after play."""
    p, q = (parse(t) for t in GROWTH)

    def play():
        game = equivalence._OnTheFly(kind, 7, (p, q))
        game.play(game.state(p), game.state(q), 7)
        return game

    return _retained(play)


def context_game_retained() -> float:
    """MiB that the weak depth-4 context game on `'d<0>.0` retains after play."""
    body = parse(CONTEXT_BODY, dialect="hoccsm")
    bang = canonicalize(hocore.derived_replication(body))
    p, q = bang, canonicalize(Par((bang, body)))
    fam = hocore.TestFamilies.default(p, q)

    def play():
        game = hocore._ContextGame("weak", fam, equivalence._game_tau_bound(4, None))
        game.play(p, q, 4)
        return game

    return _retained(play)


def partition_peaks() -> dict:
    """MiB each refinement of the W2 variant peaks at above the live graph,
    and one read of `lts.edges`."""
    lts = build_lts(parse(W2_VARIANT), Bounds(20000, 64))
    peaks = {}
    tracemalloc.start()
    try:
        for kind in ("weak", "strong", "branching"):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            compute_partition(lts, kind)
            peaks[kind] = (tracemalloc.get_traced_memory()[1] - base) / MIB
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        len(lts.edges)
        peaks["lts.edges"] = (tracemalloc.get_traced_memory()[1] - base) / MIB
    finally:
        tracemalloc.stop()
    return peaks


def main() -> int:
    print("retained after play (MiB)")
    for kind in GAME_KINDS:
        print(f"  growth pair, {kind}, depth 7: {growth_game_retained(kind):.2f}")
    print(f"  context game {CONTEXT_BODY}, weak, depth 4: {context_game_retained():.2f}")
    print("peak above the live W2-variant graph (MiB)")
    for name, peak in partition_peaks().items():
        print(f"  {name}: {peak:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
