"""Self-test of the benchmark harness, on a cut-down pair-relations workload.

Run from the repository root: python3 bench/selftest.py
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402


def _verdicts(child):
    return [{k: v for k, v in r.items() if k != "replay_error"} for r in child["results"]]


class HarnessSelfTest(unittest.TestCase):
    def test_doctored_expectation_counts_as_wrong(self):
        queries, expected = workloads.variant(workloads.small_pair_relations(), 0)
        child = run.spawn("run", queries)
        self.assertEqual(workloads.wrong_verdicts(child["results"], expected), [])
        doctored = [dict(e) for e in expected]
        doctored[0]["outcome"] = "inequivalent"
        self.assertEqual(workloads.wrong_verdicts(child["results"], doctored), [0])

    def test_two_seeds_give_identical_pinned_outputs(self):
        texts, verdicts = [], []
        for seed in (1, 2):
            queries, expected = workloads.variant(workloads.small_pair_relations(), seed)
            child = run.spawn("run", queries)
            self.assertEqual(workloads.wrong_verdicts(child["results"], expected), [])
            texts.append([q["terms"] for q in queries])
            verdicts.append(_verdicts(child))
        self.assertNotEqual(texts[0], texts[1])
        self.assertEqual(verdicts[0], verdicts[1])

    def test_traced_child_gives_pinned_outputs_and_layers(self):
        queries, expected = workloads.variant(workloads.small_pair_relations(), 3)
        traced = run.spawn("trace", queries)
        self.assertEqual(workloads.wrong_verdicts(traced["results"], expected), [])
        layers = traced["layers"]
        self.assertGreater(layers["equivalence.pair_gfp.quasi-strong.seed_pairs"], 0)
        self.assertGreater(layers["equivalence.pair_gfp.quasi-strong_s"], 0)
        self.assertGreater(traced["tracer_s"], 0)


if __name__ == "__main__":
    unittest.main()
