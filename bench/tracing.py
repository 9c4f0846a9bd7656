"""Spans around calls into pcalc's public functions, recorded from outside.

The traced child replaces each listed public function, in every pcalc module
namespace that binds it, by a wrapper that records a span: name, start, end,
parent span, query index, the peak RSS read after the call, and the call's
work counts. Calls pcalc makes internally (decide exploring, refining and
extracting a trace, compute_partition computing closures, relation_pairs
running pair_gfp, ...) go through the same module globals, so they become
spans too, nested where pcalc nests them. Nothing under src/ changes.
"""

from __future__ import annotations

import resource
import sys
import time
from collections import defaultdict


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _kind(args, kwargs, pos):
    return kwargs["kind"] if "kind" in kwargs else args[pos]


def _lts_counts(_args, _kwargs, lts):
    return {"semantics.states": lts.num_states(), "semantics.edges": len(lts.edges)}


def _pair_counts(args, kwargs, rel):
    kind = _kind(args, kwargs, 1)
    seed = args[2] if len(args) > 2 else kwargs["seed_pairs"]
    prefix = f"equivalence.pair_gfp.{kind}"
    return {
        prefix + ".seed_pairs": len(seed),
        prefix + ".kept_pairs": sum(1 for i, j in rel.pairs if i != j),
        prefix + ".rounds": rel.iterations,
    }


# (module, function, span name from the call's arguments, work counts)
LAYERS = (
    ("syntax", "parse", lambda a, k: "syntax.parse", None),
    ("semantics", "union_lts", lambda a, k: "semantics.union_lts", _lts_counts),
    ("semantics", "closures", lambda a, k: "semantics.closures", None),
    (
        "equivalence",
        "compute_partition",
        lambda a, k: f"equivalence.partition.{_kind(a, k, 1)}",
        lambda a, k, part: {f"equivalence.partition.{_kind(a, k, 1)}.rounds": part.iterations},
    ),
    ("equivalence", "classify_tau", lambda a, k: "equivalence.classify_tau", None),
    ("equivalence", "pair_gfp", lambda a, k: f"equivalence.pair_gfp.{_kind(a, k, 1)}", _pair_counts),
    (
        "equivalence",
        "extract_trace",
        lambda a, k: "equivalence.extract_trace",
        lambda a, k, trace: {"equivalence.trace_len": len(trace)},
    ),
    ("equivalence", "bounded_game", lambda a, k: "equivalence.bounded_game", None),
    ("hocore", "context_game", lambda a, k: "hocore.context_game", None),
    (
        "evidence",
        "check_certificate",
        lambda a, k: "evidence.check_certificate",
        lambda a, k, res: {"evidence.obligations": len(res.obligations)},
    ),
    ("evidence", "distinguishing_evidence", lambda a, k: "evidence.distinguishing_evidence", None),
    # replay_trace is not wrapped: distinguishing_evidence replays internally,
    # and only the gate's own replays count as evidence.replay_trace.
)

# Every timed layer reports <layer>_s (self time) and <layer>.rss_mb.
TIMED = (
    "syntax.parse",
    "semantics.union_lts",
    "semantics.closures",
    "equivalence.partition.strong",
    "equivalence.partition.weak",
    "equivalence.partition.branching",
    "equivalence.classify_tau",
    "equivalence.pair_gfp.quasi-strong",
    "equivalence.pair_gfp.qs-branching",
    "equivalence.extract_trace",
    "equivalence.bounded_game",
    "hocore.context_game",
    "evidence.check_certificate",
    "evidence.distinguishing_evidence",
)

# The correctness gate's replays, timed after the queries' clock stops.
GATE = "evidence.replay_trace"

COUNTS = (
    "semantics.states",
    "semantics.edges",
    "equivalence.partition.strong.rounds",
    "equivalence.partition.weak.rounds",
    "equivalence.partition.branching.rounds",
    "equivalence.pair_gfp.quasi-strong.seed_pairs",
    "equivalence.pair_gfp.quasi-strong.kept_pairs",
    "equivalence.pair_gfp.quasi-strong.rounds",
    "equivalence.pair_gfp.qs-branching.seed_pairs",
    "equivalence.pair_gfp.qs-branching.kept_pairs",
    "equivalence.pair_gfp.qs-branching.rounds",
    "equivalence.trace_len",
    "evidence.obligations",
)

# The process-global memo tables, read by name so that a rename reports null
# instead of crashing the run or reading as an empty table.
MEMO_TABLES = (
    ("syntax", "_intern", "syntax.intern_size"),
    ("syntax", "_canon_cache", "syntax.canon_cache_size"),
    ("semantics", "_step_cache", "semantics.step_cache_size"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.query = None
        # Time spent in the tracer's own bookkeeping, outside every span.
        self.own_s = 0.0

    def call(self, name, fn, args=(), kwargs=None, count=None):
        entered = time.perf_counter()
        kwargs = kwargs or {}
        span = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "query": self.query,
        }
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            span["rss_mb"] = peak_rss_mb()
        if count is not None:
            span["counts"] = count(args, kwargs, result)
        self.own_s += (span["start"] - entered) + (time.perf_counter() - span["end"])
        return result

    def install(self):
        """Wrap every LAYERS function wherever a pcalc module binds it."""
        mods = [m for n, m in sys.modules.items() if n == "pcalc" or n.startswith("pcalc.")]
        for mod_name, fn_name, namer, count in LAYERS:
            orig = getattr(sys.modules["pcalc." + mod_name], fn_name)

            def wrapper(*args, _orig=orig, _namer=namer, _count=count, **kwargs):
                return self.call(_namer(args, kwargs), _orig, args, kwargs, _count)

            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)

    def layer_metrics(self):
        """Per-layer self time, RSS high-water mark and summed work counts of
        the spans so far, plus the memo-table sizes now."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        self_s = defaultdict(float)
        rss = {}
        counts = defaultdict(int)
        for i, span in enumerate(self.spans):
            name = span["name"]
            self_s[name] += span["end"] - span["start"] - child_time[i]
            rss[name] = max(rss.get(name, 0.0), span["rss_mb"])
            for key, val in span.get("counts", {}).items():
                counts[key] += val
        out = {}
        for name in TIMED:
            out[name + "_s"] = self_s.get(name, 0.0)
            out[name + ".rss_mb"] = rss.get(name, 0.0)
        for name in COUNTS:
            out[name] = counts.get(name, 0)
        for mod_name, attr, metric in MEMO_TABLES:
            table = getattr(sys.modules["pcalc." + mod_name], attr, None)
            out[metric] = None if table is None else len(table)
        return out

    def gate_metrics(self, first):
        """Time and RSS high-water mark of the gate's spans, spans[first:]."""
        top = [span for span in self.spans[first:] if span["parent"] is None]
        return {
            GATE + "_s": sum(span["end"] - span["start"] for span in top),
            GATE + ".rss_mb": max((span["rss_mb"] for span in top), default=0.0),
        }
