"""Per-layer metrics of a traced run.

Times are per traced op, in ms, and are self times (span minus child
spans) unless the metric says otherwise.  Every workload reports every
metric in ``UNITS``; a layer the workload does not cross reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from workloads import cache_hit_count

#: name -> unit, in report order; ``per_layer`` in BENCHMARK.json.
UNITS = {
    "parse.ms": "ms",
    "derive.ms": "ms",
    "derive.states": "count/op",
    "lower.ms": "ms",
    "registry.self_ms": "ms",
    "registry.fallbacks": "count",
    "steady.ms": "ms",
    "steady.iterations": "count/op",
    "guards.ms": "ms",
    "guards.condition_ms": "ms",
    "guards.share": "ratio",
    "transient.ms": "ms",
    "passage.ms": "ms",
    "ode.ms": "ms",
    "allocation.unit_ms": "ms",
    "allocation.unit_max_ms": "ms",
    "engine.batch_ms": "ms",
    "engine.units": "count/op",
    "engine.retries": "count",
    "engine.parallel_efficiency": "ratio",
    "manifest.ms": "ms",
    "cache.key_ms": "ms",
    "cache.hits": "count",
    "gpepa.ms": "ms",
    "biopepa.ms": "ms",
    "core.ms": "ms",
    "setup.import_s": "s",
    "setup.warmup_s": "s",
    "trace.overhead_ms": "ms",
}


def _p50_ms(ops) -> float:
    done = [op.latency_s * 1e3 for op in ops if op.error is None]
    return statistics.median(done) if done else 0.0


def layer_metrics(tracer, workload, untraced, traced, before, after, setup):
    """Returns ``(metrics, document)``: the reported metrics and the
    reduced trace that is written beside the spans."""
    summary = tracer.summary()
    layers = summary["layers"]
    counts = summary["counts"]
    n = max(1, len(traced))

    def self_ms(*names):
        return 1e3 * sum(layers.get(name, {}).get("self_s", 0.0) for name in names) / n

    def delta(name):
        return after.get(name, 0) - before.get(name, 0)

    units = summary["units"]
    batch_s = summary["batch_s"]
    per_op_max = defaultdict(float)
    for op, seconds in units:
        per_op_max[op] = max(per_op_max[op], seconds)
    batched_units = sum(s for op, s in units if op in batch_s)
    solve_ms = self_ms("steady", "transient", "passage")
    guards_ms = self_ms("guards", "guards.condition")
    untraced_p50, traced_p50 = _p50_ms(untraced), _p50_ms(traced)
    values = {
        "parse.ms": self_ms("parse"),
        "derive.ms": self_ms("derive"),
        "derive.states": counts.get("derive.states", 0) / n,
        "lower.ms": self_ms("lower"),
        "registry.self_ms": self_ms("registry"),
        "registry.fallbacks": delta("ir.fallback.used"),
        "steady.ms": self_ms("steady"),
        "steady.iterations": counts.get("steady.iterations", 0) / n,
        "guards.ms": guards_ms,
        "guards.condition_ms": self_ms("guards.condition"),
        "guards.share": guards_ms / solve_ms if solve_ms else 0.0,
        "transient.ms": self_ms("transient"),
        "passage.ms": self_ms("passage"),
        "ode.ms": self_ms("ode"),
        "allocation.unit_ms": (
            1e3 * statistics.fmean(s for _, s in units) if units else 0.0
        ),
        "allocation.unit_max_ms": (
            1e3 * statistics.fmean(per_op_max.values()) if per_op_max else 0.0
        ),
        "engine.batch_ms": 1e3 * sum(batch_s.values()) / n,
        "engine.units": counts.get("engine.units", 0) / n,
        "engine.retries": delta("engine.retries"),
        "engine.parallel_efficiency": (
            batched_units / (2.0 * sum(batch_s.values())) if batch_s else 0.0
        ),
        "manifest.ms": self_ms("manifest"),
        "cache.key_ms": self_ms("cache.key"),
        "cache.hits": cache_hit_count(after) - cache_hit_count(before),
        "gpepa.ms": self_ms("gpepa"),
        "biopepa.ms": self_ms("biopepa"),
        "core.ms": self_ms("core"),
        "setup.import_s": setup["import_s"],
        "setup.warmup_s": setup["warmup_s"],
        "trace.overhead_ms": traced_p50 - untraced_p50,
    }
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in UNITS.items()}
    document = {
        "workload": workload.name,
        "seed": workload.seed,
        "traced_ops": len(traced),
        "untraced_ops": len(untraced),
        "untraced_p50_ms": untraced_p50,
        "traced_p50_ms": traced_p50,
        "metrics": metrics,
        "layers": layers,
        "counts": counts,
        "units": units,
    }
    return metrics, document
