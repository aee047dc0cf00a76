"""The workloads: set-up, one op, and the per-op correctness check.

Each workload runs a closed loop with one client: the next op starts
only when the previous one has returned.  Checks run after the timed
loop, on every op's stored output, against oracles that do not share the
op's code path.
"""

from __future__ import annotations

import multiprocessing
import resource
import time
from contextlib import ExitStack
from dataclasses import dataclass

import inputs

@dataclass
class Op:
    index: int
    input: object
    latency_s: float
    output: object = None
    error: str | None = None


def rss_peak_mb() -> float:
    """Peak resident set size (``VmHWM``) of this process, in MiB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def cache_hit_count(counters: dict) -> int:
    return sum(v for k, v in counters.items() if k.endswith(".cache_hit"))


def is_cdf(times, cdf) -> bool:
    import numpy as np

    times, cdf = np.asarray(times), np.asarray(cdf)
    return bool(
        times.shape == cdf.shape
        and np.all(np.diff(times) > 0)
        and np.all(np.diff(cdf) >= 0)
        and cdf.min() >= 0.0
        and cdf.max() <= 1.0
    )


class Workload:
    """Single-client closed loop; subclasses define ``make_input``,
    ``op`` and ``check``.  Inputs are made outside the timed region."""

    name = ""

    def __init__(self, seed: int, workdir: str, tracer=None):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.next_index = 0
        #: Contexts held for the whole run (cache off, engine.parallel).
        self.contexts = ExitStack()

    def import_layers(self) -> None:
        raise NotImplementedError

    def start(self) -> None:
        """Enter the contexts the ops run under."""

    def warmup(self) -> None:
        self.op(self.make_input(inputs.WARMUP))

    def make_input(self, index: int):
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, op: Op) -> None:
        """Raise ``AssertionError`` when ``op``'s output is wrong."""
        raise NotImplementedError

    def finish_checks(self, ops: list[Op]) -> list[str]:
        """Run-level checks; returns the failures."""
        from repro.engine import get_registry

        hits = cache_hit_count(get_registry().snapshot()["counters"])
        return [f"{hits} unplanned cache hits"] if hits else []

    def peak_rss_mb(self) -> float:
        return rss_peak_mb()

    def close(self) -> None:
        self.contexts.close()

    def run(self, seconds: float) -> tuple[list[Op], float]:
        """Ops until ``seconds`` have passed; returns them and the wall time."""
        ops = []
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            index = self.next_index
            ops.append(self._timed(index, self.make_input(index), self.op))
            self.next_index += 1
        return ops, time.perf_counter() - start

    def _timed(self, index: int, inp, fn, *args) -> Op:
        """``fn(*args, inp)`` as op ``index``, timed."""
        tracer = self.tracer
        if tracer is not None:
            tracer.set_op(index)
        t0 = time.perf_counter()
        try:
            output, error = fn(*args, inp), None
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            output, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer is not None and tracer.enabled:
            tracer.op_span(index, t0, t1)
        return Op(index, inp, t1 - t0, output, error)


# ---------------------------------------------------------------------------
# paper
# ---------------------------------------------------------------------------


class Paper(Workload):
    """Table I, Figs. 1-5, the classic models and Bio-PEPA, inline with
    the content cache off."""

    name = "paper"

    def import_layers(self) -> None:
        import repro.allocation  # noqa: F401
        import repro.biopepa  # noqa: F401
        import repro.core  # noqa: F401
        import repro.experiments  # noqa: F401
        import repro.gpepa  # noqa: F401
        import repro.pepa  # noqa: F401

    def start(self) -> None:
        from repro.engine import cache_disabled, parallel

        self.contexts.enter_context(cache_disabled())
        self.contexts.enter_context(parallel(workers=1, transport="inline"))

    def make_input(self, index: int) -> dict:
        return inputs.paper_inputs(self.seed, index)

    def op(self, args: dict) -> dict:
        from repro import experiments as ex

        seed = args["seed"]
        return {
            "table1": ex.table1(seed=seed),
            "fig1": ex.fig1_validation(),
            "fig2": ex.fig2_activity_diagram(seed=seed),
            "fig3": ex.fig3_cdf_mapping_a(seed=seed),
            "fig4": ex.fig4_cdf_mapping_b(seed=seed),
            "fig5": ex.fig5_gpepa_scalability(n_clients=args["n_clients"]),
            "classic": ex.classic_models_experiment(),
            "biopepa": ex.biopepa_experiment(),
        }

    def check(self, op: Op) -> None:
        out = op.output
        for rows in out["table1"].data["mappings"].values():
            for row in rows.values():
                assert 0.0 <= row["robustness"] <= 1.0, row
                assert row["mean"] >= row["nominal"] * (1 - 1e-9), row
        for fig in ("fig3", "fig4"):
            data = out[fig].data
            assert is_cdf(data["times"], data["cdf"]), f"{fig} is not a CDF"
            assert data["mean"] > 0.0
        assert out["fig1"].data["passed"], "fig1 native/container mismatch"
        assert out["fig2"].data["nodes"] > 0 and out["fig2"].data["edges"] > 0
        assert out["fig5"].data["exit_code"] == 0, "fig5 container run failed"
        assert out["classic"].data["validation_passed"], "classic validation failed"
        assert out["biopepa"].data["validation_passed"], "biopepa validation failed"
        assert out["biopepa"].data["P_plain_final"] > out["biopepa"].data["P_inhibited_final"] > 0


# ---------------------------------------------------------------------------
# steady_2k
# ---------------------------------------------------------------------------


def send_throughput(ir, pi) -> float:
    """Throughput of ``send``: ``sum_s pi(s) * rate of send out of s``."""
    import numpy as np

    rates = np.asarray(ir.action_rate_matrix("send").sum(axis=1)).ravel()
    return float(pi @ rates)


class Steady2k(Workload):
    """Default-backend steady solves of 2,048-state PC-LAN chains."""

    name = "steady_2k"

    def import_layers(self) -> None:
        import repro.ir  # noqa: F401
        import repro.manifest  # noqa: F401
        import repro.pepa  # noqa: F401

    def make_input(self, index: int) -> str:
        return inputs.steady_source(self.seed, index)

    def op(self, source: str):
        from repro.manifest import run_from_source

        return run_from_source("pepa", source, "steady")

    def check(self, op: Op) -> None:
        import numpy as np

        from repro.engine import cache_disabled
        from repro.ir import solve
        from repro.manifest import lower_for_capability

        result = op.output
        assert result.meta["cache"] == "miss", f"cache {result.meta['cache']}"
        assert result.pi.size == inputs.STEADY_STATES
        source = op.input
        with cache_disabled():
            ir, _ = lower_for_capability("pepa", source, "steady")
            lumped, _ = lower_for_capability(
                "pepa", source, "steady", derive_backend="population"
            )
            lumped_pi = solve(lumped, "steady").pi
        residual = float(np.abs(result.pi @ ir.generator).sum())
        scale = float(np.abs(ir.generator.diagonal()).max())
        assert residual <= 1e-10 * scale, f"||pi Q||_1 = {residual:.3e}"
        full = send_throughput(ir, result.pi)
        lumped_x = send_throughput(lumped, lumped_pi)
        assert lumped.n_states in (12, 42), lumped.n_states
        assert abs(full - lumped_x) <= 1e-9 * abs(lumped_x), (full, lumped_x)


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------


class Batch(Workload):
    """Table I makespan CDFs on the two-worker process pool."""

    name = "batch"

    def import_layers(self) -> None:
        import repro.allocation  # noqa: F401
        import repro.engine  # noqa: F401

    def start(self) -> None:
        from repro.engine import parallel

        self.contexts.enter_context(parallel(workers=2, transport="pool"))

    def make_input(self, index: int):
        return inputs.batch_inputs(self.seed, index)

    def peak_rss_mb(self) -> float:
        """Peak of the largest pool worker, where the solves run.

        This process only dispatches; its own peak (imports) is larger
        than a worker's and would hide growth in the solves.  Each batch
        ends its pool; the workers count in ``RUSAGE_CHILDREN`` once
        reaped, so reap them first.
        """
        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.01)
        children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        if not children_kib:
            raise RuntimeError("no pool worker ran")
        return children_kib / 1024.0

    def op(self, inp):
        from repro.allocation import makespan_cdf

        return makespan_cdf(*inp)

    def check(self, op: Op) -> None:
        import numpy as np

        from repro.allocation import MACHINES, finishing_time_cdf
        from repro.engine import cache_disabled, parallel

        result = op.output
        assert result.meta["cache"] == "miss", f"cache {result.meta['cache']}"
        mapping, workload, times = op.input
        # Inline oracle: each machine's CDF on its own, multiplied in
        # MACHINES order — the pool result must match it bit for bit.
        product = np.ones_like(times)
        with cache_disabled(), parallel(workers=1, transport="inline"):
            for machine in MACHINES:
                if mapping.applications_on(machine):
                    product = product * finishing_time_cdf(
                        mapping, machine, workload, times=times
                    ).cdf
        assert np.array_equal(result.cdf, product), "pool != inline product"
        assert is_cdf(times, result.cdf), "makespan is not a CDF"


WORKLOADS = {cls.name: cls for cls in (Paper, Steady2k, Batch)}
