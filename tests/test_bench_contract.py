"""The benchmark child, traced, on one tiny query per operation, and the
harness's own self-test.

`bench/tracing.py` reads pcalc's memo tables by name and reports a table
that is gone or renamed as null, so a traced run of such a change ends in a
result line with a null metric. This test runs the child as the benchmark
does, in a fresh interpreter, and checks its results and its metrics.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PAIR = ["a.'d | !a | !'a | !d", "'d | !a | !'a | !d"]

# (query, its pinned result)
QUERIES = [
    (
        {"op": "decide", "terms": PAIR, "kind": "weak", "game_depth": 6},
        {"outcome": "equivalent", "states": 3},
    ),
    (
        {"op": "decide", "terms": PAIR, "kind": "quasi-strong", "game_depth": 6},
        {"outcome": "inequivalent", "states": 3, "trace_len": 3, "replay_ok": True},
    ),
    (
        {"op": "partitions", "terms": ["a.'b | 'a.b | c.'c | 'd"], "classify": True,
         "kinds": ["strong", "weak", "branching"]},
        {"states": 54, "edges": 147, "state_changing": 12,
         "blocks": {"strong": 54, "weak": 54, "branching": 54}},
    ),
    (
        {"op": "evidence", "terms": ["a.b | 'd", "a.c | 'd"], "kind": "strong"},
        {"trace_len": 2, "formula": True, "states": 10, "edges": 13, "replay_ok": True},
    ),
    (
        {"op": "context", "body": "'d<0>.0", "mode": "weak", "depth": 2},
        {"outcome": "inequivalent", "trace_len": 1},
    ),
    (
        {"op": "certify", "body": "a | 'a", "budget": 128},
        {"outcomes": ["certified", "certified"], "obligations": 19},
    ),
]


def test_traced_child_gives_pinned_results_and_numeric_layer_metrics():
    spec = json.dumps({"mode": "trace", "queries": [q for q, _ in QUERIES]})
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), str(ROOT / "src")],
        input=spec,
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["results"] == [expected for _, expected in QUERIES]
    layers = out["layers"]
    assert {"syntax.intern_size", "syntax.canon_cache_size", "semantics.step_cache_size"} <= layers.keys()
    bad = {k: v for k, v in layers.items() if type(v) not in (int, float)}
    assert not bad
    # what pair_gfp takes and returns, as the benchmark counts it: the
    # quasi-strong query seeds it with the one weak pair, which it splits
    assert layers["equivalence.pair_gfp.quasi-strong.seed_pairs"] == 1
    assert layers["equivalence.pair_gfp.quasi-strong.kept_pairs"] == 0
    assert layers["equivalence.pair_gfp.quasi-strong.rounds"] == 2


def test_harness_self_test_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
