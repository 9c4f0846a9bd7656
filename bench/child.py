"""One benchmark iteration in a fresh interpreter.

Usage: python3 bench/child.py SRC_DIR < spec.json

The spec holds a mode ("run" or "trace") and the queries of one
seeded workload. The child imports pcalc from SRC_DIR, parses every term
(set-up ends there), runs the queries through pcalc's public entry points,
replays every first-order attacker trace with exact silent closures, and
prints one JSON line. pcalc's memo tables are process-global and never freed,
so every iteration is a cold process, as every CLI invocation is.
"""

from __future__ import annotations

import json
import os
import sys
import time

# Silent closures in the replay gate have no depth bound; the engine's own
# state cap is far above the closure size of any workload term.
EXACT_TAU_BOUND = 10**6


def _prepare(query, pcalc):
    op = query["op"]
    if op == "context":
        body = pcalc.syntax.parse(query["body"], dialect="hoccsm")
        bang = pcalc.syntax.canonicalize(pcalc.hocore.derived_replication(body))
        return bang, pcalc.syntax.canonicalize(pcalc.syntax.Par((bang, body)))
    if op == "certify":
        return (pcalc.syntax.canonicalize(pcalc.syntax.parse("!(" + query["body"] + ")")),)
    return tuple(pcalc.syntax.parse(t) for t in query["terms"])


def _bounds(query, pcalc):
    return pcalc.semantics.Bounds(*query["bounds"]) if "bounds" in query else pcalc.semantics.Bounds()


def _run(query, terms, pcalc):
    """Run one query; returns (result dict, first-order trace or None)."""
    op = query["op"]
    sem, eqv, evd = pcalc.semantics, pcalc.equivalence, pcalc.evidence
    if op == "decide":
        p, q = terms
        v = eqv.decide(p, q, query["kind"], _bounds(query, pcalc), game_depth=query["game_depth"])
        res = {"outcome": v.outcome, "states": v.stats.get("states")}
        if v.trace is not None:
            res["trace_len"] = len(v.trace)
        return res, v.trace
    if op == "partitions":
        lts = sem.build_lts(terms[0], _bounds(query, pcalc))
        res = {"states": lts.num_states(), "edges": len(lts.edges), "blocks": {}}
        if query.get("classify"):
            labels = eqv.classify_tau(lts).edge_labels
            res["state_changing"] = sum(1 for lab in labels.values() if lab == "state-changing")
        for kind in query["kinds"]:
            res["blocks"][kind] = len(set(eqv.compute_partition(lts, kind).block_of))
        return res, None
    if op == "evidence":
        lts = sem.union_lts(list(terms))
        ev = evd.distinguishing_evidence(lts, lts.initials[0], lts.initials[-1], query["kind"])
        res = {"trace_len": len(ev.trace), "formula": ev.formula is not None,
               "states": lts.num_states(), "edges": len(lts.edges)}
        return res, ev.trace
    if op == "context":
        v = pcalc.hocore.context_game(terms[0], terms[1], query["mode"], query["depth"])
        return {"outcome": v.outcome, "trace_len": len(v.trace or [])}, None
    if op == "certify":
        bang = terms[0]
        outcomes, obligations = [], 0
        for action, deriv in sem.step(bang):
            if action.is_tau:
                cert = evd.Certificate(((bang, deriv),), "upto-context", query["budget"])
                result = evd.check_certificate(cert)
                outcomes.append(result.outcome)
                obligations += len(result.obligations)
        return {"outcomes": outcomes, "obligations": obligations}, None
    raise ValueError(f"unknown query op {op!r}")


def main() -> int:
    src = os.path.abspath(sys.argv[1])
    sys.path.insert(0, src)
    import pcalc

    if not os.path.abspath(pcalc.__file__).startswith(src + os.sep):
        print(f"pcalc imported from {pcalc.__file__}, not from {src}", file=sys.stderr)
        return 2
    import tracing

    spec = json.load(sys.stdin)
    mode = spec["mode"]
    tracer = None
    if mode == "trace":
        tracer = tracing.Tracer()
        tracer.install()
    terms = [_prepare(q, pcalc) for q in spec["queries"]]
    ready = time.monotonic()

    outputs = []
    own0 = tracer.own_s if tracer is not None else 0.0
    t0 = time.perf_counter()
    for i, (query, qterms) in enumerate(zip(spec["queries"], terms)):
        if tracer is not None:
            tracer.query = i
        try:
            outputs.append(_run(query, qterms, pcalc))
        except Exception as exc:  # a crashing query is a wrong verdict, not a harness failure
            outputs.append(({"error": f"{type(exc).__name__}: {exc}"}, None))
    wall = time.perf_counter() - t0
    rss = tracing.peak_rss_mb()
    if tracer is not None:
        # Read before the gate, whose replays step, canonicalize and explore too.
        layers = tracer.layer_metrics()
        tracer_s = tracer.own_s - own0
        gate_first = len(tracer.spans)

    # The correctness gate runs after the clock stops.
    results = []
    for i, (res, trace) in enumerate(outputs):
        if trace is not None:
            if tracer is not None:
                tracer.query = i
            try:
                if tracer is not None:
                    tracer.call(tracing.GATE, pcalc.evidence.replay_trace, (trace, EXACT_TAU_BOUND))
                else:
                    pcalc.evidence.replay_trace(trace, EXACT_TAU_BOUND)
                res["replay_ok"] = True
            except pcalc.evidence.ReplayError as exc:
                res["replay_ok"] = False
                res["replay_error"] = str(exc)
            except Exception as exc:
                res["error"] = f"replay: {type(exc).__name__}: {exc}"
        results.append(res)

    out = {"ready": ready, "wall_s": wall, "peak_rss_mb": rss, "results": results}
    if tracer is not None:
        layers.update(tracer.gate_metrics(gate_first))
        out["layers"] = layers
        out["tracer_s"] = tracer_s
        out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
