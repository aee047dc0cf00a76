"""In-memory span tracing around the program's public functions.

The benchmark measures its end-to-end metrics with tracing off.  For the
traced run it wraps public functions of each layer (the module table in
``LAYERS``) so every call records a span: id, parent span, the op it
belongs to, its layer, start and end.  Spans stay in memory and are
written once, when the run ends.  A layer's self time is its spans'
duration minus the part covered by their child spans; children always
run nested in the parent's thread, so that part is the sum of the
children's durations.

Spans recorded in forked pool workers cannot reach the parent's span
list.  A worker starts with an empty span list and stack; each of its
top-level calls appends one JSON line to ``unit_log`` with its interval
and the self time of every layer it crossed.  After the run the parent
assigns each line to the op whose interval holds it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict


def _size(counts, out, args, kwargs):
    counts["derive.states"] += int(getattr(out, "size", 0) or 0)


def _iterations(counts, out, args, kwargs):
    counts["steady.iterations"] += int(getattr(out, "iterations", 0) or 0)


def _tasks(counts, out, args, kwargs):
    tasks = args[1] if len(args) > 1 else kwargs.get("tasks", ())
    counts["engine.units"] += len(tasks)


#: (module, attribute — ``Class.method`` for methods, layer, counter).
LAYERS = (
    ("repro.pepa.parser", "parse_model", "parse", None),
    ("repro.pepa.statespace", "derive", "derive", _size),
    ("repro.pepa.population", "derive_population", "derive", _size),
    ("repro.pepa.ctmc", "ctmc_of", "lower", None),
    ("repro.pepa.ctmc", "CTMC.lower", "lower", None),
    ("repro.ir.registry", "solve", "registry", None),
    ("repro.numerics.steady", "steady_state", "steady", _iterations),
    ("repro.ir.guards", "verify", "guards", None),
    ("repro.numerics.diagnostics", "condition_estimate", "guards.condition", None),
    ("repro.numerics.transient", "transient_distribution", "transient", None),
    ("repro.numerics.transient", "backward_transient", "transient", None),
    ("repro.numerics.transient", "absorption_cdf", "transient", None),
    ("repro.numerics.transient", "expected_hitting_time", "transient", None),
    ("repro.numerics.ode", "integrate_ode", "ode", None),
    ("repro.numerics.ode", "rk4_fixed_step", "ode", None),
    ("repro.pepa.passage", "passage_time_cdf", "passage", None),
    ("repro.pepa.passage", "passage_time_mean", "passage", None),
    ("repro.allocation.cdf", "finishing_time_cdf", "allocation.unit", None),
    ("repro.allocation.cdf", "makespan_cdf", "allocation", None),
    ("repro.allocation.robustness", "robustness_of_mapping", "allocation", None),
    ("repro.engine.executor", "run_tasks", "engine", _tasks),
    ("repro.engine.run_manifest", "build_solve_manifest", "manifest", None),
    ("repro.engine.run_manifest", "build_batch_manifest", "manifest", None),
    ("repro.engine.run_manifest", "attach_manifest", "manifest", None),
    ("repro.engine.run_manifest", "result_digest", "manifest", None),
    ("repro.engine.run_manifest", "model_descriptor", "manifest", None),
    ("repro.engine.run_manifest", "dataclass_descriptor", "manifest", None),
    ("repro.engine.cache", "canonical_key", "cache.key", None),
    ("repro.gpepa.parser", "parse_gpepa", "gpepa", None),
    ("repro.gpepa.fluid", "fluid_trajectory", "gpepa", None),
    ("repro.gpepa.rewards", "action_throughput_series", "gpepa", None),
    ("repro.biopepa.parser", "parse_biopepa", "biopepa", None),
    ("repro.biopepa.odes", "ode_trajectory", "biopepa", None),
    ("repro.biopepa.ssa", "ssa_trajectory", "biopepa", None),
    ("repro.biopepa.ctmc", "population_ctmc", "biopepa", None),
    ("repro.core.builder", "Builder.build", "core", None),
    ("repro.core.runtime", "ContainerRuntime.run", "core", None),
    ("repro.core.validation", "validate_against_native", "core", None),
)


def self_times(spans) -> dict:
    """Per-layer ``{"self_s", "calls"}`` of ``spans``."""
    children = defaultdict(float)
    for _span, parent, _op, _layer, start, end in spans:
        if parent:
            children[parent] += end - start
    layers: dict = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
    for span, _parent, _op, layer, start, end in spans:
        entry = layers[layer]
        entry["self_s"] += end - start - children[span]
        entry["calls"] += 1
    return layers


class Tracer:
    """Span recorder; inert until :meth:`install` and ``enabled``."""

    def __init__(self, unit_log: str):
        self.enabled = False
        self.spans: list[tuple] = []  # (id, parent, op, layer, start, end)
        self.counts: Counter = Counter()
        self.unit_log = unit_log
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self._local = threading.local()
        self.spans = []
        self.counts = Counter()

    # -- recording --------------------------------------------------------

    def set_op(self, op: int | None) -> None:
        self._local.op = op

    def _wrap(self, fn, layer, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (span, parent, getattr(local, "op", None), layer, start, end)
                )
                if not stack and os.getpid() != tracer._pid:
                    tracer._flush_worker(layer, start, end)
            if count is not None:
                count(tracer.counts, out, args, kwargs)
            return out

        return traced

    def _flush_worker(self, layer, start, end) -> None:
        """In a pool worker: log one finished top-level call, the self
        time of every layer it crossed and its counts, then drop them."""
        layers = self_times(self.spans)
        line = {"layer": layer, "start": start, "end": end,
                "self_s": {name: v["self_s"] for name, v in layers.items()},
                "counts": dict(self.counts)}
        self.spans = []
        self.counts = Counter()
        with open(self.unit_log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(line) + "\n")

    def install(self) -> None:
        """Wrap every ``LAYERS`` entry wherever the program refers to it."""
        for module_name, attr, layer, count in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, name = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, name, self._wrap(cls.__dict__[name], layer, count))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, layer, count)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)

    def op_span(self, op: int, start: float, end: float) -> None:
        self.spans.append((next(self._ids), 0, op, "op", start, end))

    # -- reduction --------------------------------------------------------

    def worker_calls(self) -> list[dict]:
        if not os.path.exists(self.unit_log):
            return []
        with open(self.unit_log, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]

    def summary(self) -> dict:
        """Per-layer times (pool workers included), unit and batch times."""
        spans = [span for span in self.spans if span[3] != "op"]
        ops = {s[2]: (s[4], s[5]) for s in self.spans if s[3] == "op"}
        layers = self_times(spans)
        layer_of = {span[0]: span[3] for span in spans}
        counts = Counter(self.counts)
        units = []  # (op, seconds) of each top-level allocation.unit call
        batch = defaultdict(float)
        for span, parent, op, layer, start, end in spans:
            if layer_of.get(parent) == layer:
                continue
            if layer == "allocation.unit":
                units.append((op, end - start))
            elif layer == "engine":
                batch[op] += end - start
        for call in self.worker_calls():
            op = next((op for op, (lo, hi) in ops.items()
                       if lo <= call["start"] <= hi), None)
            if op is None:
                continue
            if call["layer"] == "allocation.unit":
                units.append((op, call["end"] - call["start"]))
            for name, seconds in call["self_s"].items():
                layers[name]["self_s"] += seconds
            counts.update(call["counts"])
        return {
            "layers": {name: dict(v) for name, v in layers.items()},
            "units": units,
            "batch_s": dict(batch),
            "counts": dict(counts),
        }

    def write(self, path: str, extra: dict) -> None:
        """Write the spans and the reduced figures; called once per run."""
        document = dict(extra)
        document["fields"] = ["id", "parent", "op", "layer", "start", "end"]
        document["spans"] = self.spans
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
