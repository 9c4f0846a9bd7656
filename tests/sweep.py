"""Soundness sweep: bounded `decide` verdicts against the exact relation of
the complete graph, on pairs whose silent closures a small bound cuts short
(ROADMAP item 13).

The pairs come from `oracles.sweep_pairs` on a fixed seed, not from
PCALC_SEED, so every seed checks the same queries. A query is a pair, a kind
and a setting (max_states, game depth, tau_bound); its exact answer is
`relation(lts, kind)` on the pair's complete `union_lts`. A verdict is
unsound when it says `inequivalent` of a related pair or `equivalent` of an
unrelated one. The unsound `inequivalent` verdicts found so far are pinned
in `PINNED` (ROADMAP 1a); tier-1 runs the first `SLICE` pairs and holds each
pinned case as a strict xfail, so a fix of 1a turns them red.

Usage, from the repository root:

    PYTHONPATH=src python tests/sweep.py          # the full set of pairs
    PYTHONPATH=src python tests/sweep.py --slice  # the tier-1 slice

It lists every unsound verdict with its kind and setting, and per setting
how many exact answers the bounded verdicts kept and how many they lost to
`unknown`. It exits 1 when a verdict is unsound and not pinned.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import NamedTuple

from oracles import SWEEP_BOUNDS, sweep_pairs
from pcalc.equivalence import CCSM_KINDS, decide, relation
from pcalc.semantics import Bounds, union_lts
from pcalc.syntax import render

SEED, PAIRS, SLICE = 1, 2000, 400
SETTINGS = ((3, 2, 2), (3, 3, 4), (8, 3, 2))  # (max_states, game depth, tau_bound)

# Every unsound `inequivalent` verdict of the full set, per pair: kind ->
# indices into SETTINGS. Each bounded game cut a defender's silent closure
# short and so missed an answer (ROADMAP 1a).
_PINNED_PAIRS = (
    (
        "a.'a.'a.'a.'a.'d | 'd.'d.'d.'d.a.a | !d | !'d",
        "a.a | a.'a.'a.'a.'a.'d | !d | !'d",
        {"weak": (0, 2), "branching": (0, 2)},
    ),
    (
        "a.a.a.'a.'d.'d.'d.'a | a.a.'a.'d | 'a.'a.'a.'a.'d.a.'d | !a | !'a",
        "a.'a.'d | 'a.'a.'a.'d.a.'d | 'd.'d.'d.'a | !a | !'a",
        {"weak": (0, 2), "branching": (0, 2), "quasi-strong": (0, 2), "qs-branching": (0, 2)},
    ),
    (
        "d | 'd.d.'d.a.d.'d | !d | !'d",
        "a.d.'d | d | !d | !'d",
        {"weak": (0, 2), "branching": (0, 2), "quasi-strong": (0, 2), "qs-branching": (0, 2)},
    ),
    (
        "a.a.'a.d.a.'d.a.a | d | !a | !'a | !'a",
        "d | d.a.'d.a.a | !a | !'a | !'a",
        {"weak": (2,), "branching": (0, 2), "quasi-strong": (0, 2), "qs-branching": (0, 2)},
    ),
    (
        "a.a.a.d.'d.'d | d.'d | !a | !'a",
        "d.'d | d.'d.'d | !a | !'a",
        {"weak": (2,), "branching": (0, 2)},
    ),
    (
        "'a.'a.a.d.'a.d.a.'a | !a | !'a | !'d",
        "d.'a.d.a.'a | !a | !'a | !'d",
        {"weak": (0, 2), "branching": (0, 2)},
    ),
    (
        "d.'d.d.d.a.'a | 'a.'d.d.a.a.'d | !d | !'d",
        "a.'a | 'a.'d.d.a.a.'d | !d | !'d",
        {"weak": (0, 2), "branching": (0, 2)},
    ),
    (
        "d.'d.d.d.'a.d.'d.'a | 'a.d.a.'a | !d | !'d",
        "'a.d.a.'a | 'a.d.'d.'a | !d | !'d",
        {"weak": (0, 2), "branching": (0, 2)},
    ),
    (
        "'a.d | 'a.'a.a.'a.a.'d.d.'d | !a | !'a",
        "a.'d.d.'d | d | !a | !'a",
        {"weak": (0, 2)},
    ),
    (
        "'a.a.a.a.'a.a.'d | 'a.a.'d.d.a.a.'d | !a | !'a",
        "a.'d | a.'d.d.a.a.'d | !a | !'a",
        {"weak": (2,), "branching": (2,)},
    ),
    (
        "d.'d.d.d.'d.'a | d.'d.'d | d.'d.'d.a.'d | !d | !'d",
        "a.'d | 'a | 'd | !d | !'d",
        {"weak": (0, 1, 2), "branching": (0, 1, 2)},
    ),
    (
        "a.a.'a.'d.'a | a.'d.d.d | !a | !'a",
        "a.'d.d.d | 'd.'a | !a | !'a",
        {"weak": (0, 2), "branching": (0, 2)},
    ),
    (
        "d.'d.'d.d.'d.a.d.'a | !d | !'a | !'d",
        "a.d.'a | !d | !'a | !'d",
        {"weak": (0, 1, 2), "branching": (0, 1, 2)},
    ),
)
PINNED = tuple(
    (left, right, kind, SETTINGS[i]) for left, right, kinds in _PINNED_PAIRS for kind, at in kinds.items() for i in at
)


class Query(NamedTuple):
    left: str
    right: str
    kind: str
    setting: tuple
    related: bool  # the exact answer
    outcome: str  # the bounded verdict

    @property
    def case(self):
        return (self.left, self.right, self.kind, self.setting)

    @property
    def unsound(self) -> bool:
        return self.outcome == ("inequivalent" if self.related else "equivalent")


def queries(pairs):
    """Every query over the pairs whose union graph completes."""
    for p, q in pairs:
        lts = union_lts([p, q], SWEEP_BOUNDS)
        if lts.truncated:
            continue
        left, right = render(p, compact=True), render(q, compact=True)
        for kind in CCSM_KINDS:
            related = relation(lts, kind).relates(lts.initials[0], lts.initials[-1])
            for setting in SETTINGS:
                max_states, depth, tau_bound = setting
                outcome = decide(p, q, kind, Bounds(max_states, 64), depth, tau_bound).outcome
                yield Query(left, right, kind, setting, related, outcome)


def main(argv) -> int:
    count = SLICE if argv[1:] == ["--slice"] else PAIRS
    start = time.perf_counter()
    tally, unsound = Counter(), []
    for query in queries(sweep_pairs(SEED, count)):
        exact = "equivalent" if query.related else "inequivalent"
        tally[query.setting, exact, "unsound" if query.unsound else query.outcome] += 1
        if query.unsound:
            unsound.append(query)
    for query in unsound:
        pin = "pinned" if query.case in PINNED else "NOT PINNED"
        print(f"unsound {query.outcome} {query.kind} {query.setting} [{pin}]: {query.left}  vs  {query.right}")
    for setting in SETTINGS:
        counts = [f"{exact} -> {verdict} {n}" for (s, exact, verdict), n in sorted(tally.items()) if s == setting]
        print(f"setting {setting}: {', '.join(counts)}")
    by_kind = Counter(q.kind for q in unsound)
    print(
        f"{count} pairs, {sum(tally.values())} queries, {time.perf_counter() - start:.1f} s: "
        f"{len(unsound)} unsound ({', '.join(f'{k} {n}' for k, n in sorted(by_kind.items()))})"
    )
    fresh = [q for q in unsound if q.case not in PINNED]
    return 1 if fresh else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
