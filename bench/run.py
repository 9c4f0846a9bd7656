"""pcalc benchmark: time-to-verdict on fixed workloads, per-layer costs from a
traced run.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every sample is a fresh child process (bench/child.py), started one at a
time, because pcalc's memo tables are process-global and a CLI user pays them
cold on every invocation. An untraced run times each query in its own child,
round-robin over the workload's queries, until the next child would end past
S seconds and every query has at least MIN_ITERATIONS samples. Each child also
gives a set-up sample, so set-up time is sampled across the whole run. The
shared host slows processes, and only ever slows them, in phases of seconds
to minutes, so each timing is the fastest sample of the run: wall_s is the sum
over the queries of each query's fastest cold time, setup_s the fastest
set-up. Phases can outlast a run, so a fixed calibration task
(bench/calibrate.py) runs before each round, and both timings are scaled by
CALIBRATION_S over its fastest time in the run; the unscaled figures are
printed too. With --trace 1 each sample is a traced child that runs the whole
workload, and its spans are written to bench/out/ when the run ends.

The last stdout line is one JSON object: correct, attempted, failed (query
children that raised, missed a pinned output or failed an exact replay) and
the metrics. The lines before it give each sample set's median, quartiles and
count. Exits non-zero without a result when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_ITERATIONS = 2
CHILD_TIMEOUT_S = 120
# bench/calibrate.py's time on a quiet 2-vCPU Xeon VM at 2.1 GHz, CPython
# 3.11, rounded. Untraced timings are scaled by CALIBRATION_S / (the run's
# fastest calibration), so a run made while other tenants slow the host reads
# about as a quiet run would.
CALIBRATION_S = 0.28


class HarnessError(RuntimeError):
    pass


def spawn(mode: str, queries) -> dict:
    """Run one child to completion; set-up time counts from the spawn."""
    spec = json.dumps({"mode": mode, "queries": queries})
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), str(SRC)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    try:
        out, err = proc.communicate(spec, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{mode} child ran longer than {CHILD_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{mode} child exited with {proc.returncode}: {err.strip()[-2000:]}")
    res = json.loads(lines[-1])
    res["setup_s"] = res["ready"] - started
    res["elapsed_s"] = time.monotonic() - started
    return res


def summary(name, values):
    vals = sorted(v for v in values if v is not None)
    if not vals:
        return None, f"{name}: null"
    med = statistics.median(vals)
    q1, _m, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
    return med, f"{name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} n {len(vals)}"


def per_layer_metrics(traced):
    metrics, lines = {}, []
    units = {}
    for name in tracing.TIMED + (tracing.GATE,):
        units[name + "_s"] = "s"
        units[name + ".rss_mb"] = "MiB"
    for name in tracing.COUNTS:
        units[name] = "count"
    for _mod, _attr, name in tracing.MEMO_TABLES:
        units[name] = "count"
    for name, unit in units.items():
        med, line = summary(name, [c["layers"][name] for c in traced])
        metrics[name] = {"value": med, "unit": unit}
        lines.append(line)
    # The tracer's own bookkeeping time, against the same child's wall time
    # without it: the untraced wall time, free of drift between two children.
    for name, unit, values in (
        ("trace.wall_s", "s", [c["wall_s"] for c in traced]),
        ("trace.overhead_pct", "%", [100.0 * c["tracer_s"] / (c["wall_s"] - c["tracer_s"]) for c in traced]),
    ):
        med, line = summary(name, values)
        metrics[name] = {"value": med, "unit": unit}
        lines.append(line)
    return metrics, lines


def calibrate() -> float:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "calibrate.py")], capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise HarnessError(f"calibration exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return float(proc.stdout)


def run_untraced(queries, expected, deadline):
    """Time every query in its own fresh child, round-robin, until the next
    child would end past the deadline and every query has MIN_ITERATIONS
    samples. A calibration runs before each round."""
    walls = [[] for _ in queries]
    rss = [[] for _ in queries]
    costs = [0.0 for _ in queries]  # longest child time seen per query
    setups, calibrations, failed = [], [], 0
    while True:
        calibrations.append(calibrate())
        for i, query in enumerate(queries):
            rounds = min(len(w) for w in walls)
            if rounds >= MIN_ITERATIONS and time.monotonic() + costs[i] > deadline:
                return walls, setups, calibrations, rss, failed
            child = spawn("run", [query])
            costs[i] = max(costs[i], child["elapsed_s"])
            walls[i].append(child["wall_s"])
            setups.append(child["setup_s"])
            rss[i].append(child["peak_rss_mb"])
            if workloads.wrong_verdicts(child["results"], [expected[i]]):
                failed += 1
                print(f"wrong verdict: query {i} {json.dumps(query)} gave {json.dumps(child['results'][0])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "pcalc" / "__init__.py").is_file():
        print(f"bench: no pcalc sources under {SRC}", file=sys.stderr)
        return 2
    queries, expected = workloads.build(args.workload, args.seed)
    deadline = time.monotonic() + args.seconds
    try:
        if args.trace:
            children = []
            while True:
                children.append(spawn("trace", queries))
                longest = max(c["elapsed_s"] for c in children)
                if len(children) >= MIN_ITERATIONS and time.monotonic() + longest > deadline:
                    break
        else:
            walls, setups, calibrations, rss, failed = run_untraced(queries, expected, deadline)
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    lines = []
    if args.trace:
        attempted = len(expected) * len(children)
        failed = 0
        for c in children:
            wrong = workloads.wrong_verdicts(c["results"], expected)
            failed += len(wrong)
            for i in wrong:
                print(f"wrong verdict: query {i} {json.dumps(queries[i])} gave {json.dumps(c['results'][i])}")
        metrics, lines = per_layer_metrics(children)
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        spans = {"workload": args.workload, "seed": args.seed, "children": [c["spans"] for c in children]}
        (out_dir / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans))
    else:
        attempted = sum(len(w) for w in walls)
        for i, w in enumerate(walls):
            lines.append(summary(f"query {i} wall_s", w)[1])
        lines.append(summary("setup_s", setups)[1])
        lines.append(summary("calibration_s", calibrations)[1])
        scale = CALIBRATION_S / min(calibrations)
        lines.append(f"unscaled wall_s {sum(min(w) for w in walls):.6g} setup_s {min(setups):.6g} scale {scale:.6g}")
        metrics = {
            "wall_s": {"value": scale * sum(min(w) for w in walls), "unit": "s"},
            "setup_s": {"value": scale * min(setups), "unit": "s"},
            # A query's peak now and then reads a third higher in one child.
            "peak_rss_mb": {"value": max(statistics.median(r) for r in rss), "unit": "MiB"},
        }
    for line in lines:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
