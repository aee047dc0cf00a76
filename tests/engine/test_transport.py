"""The transport seam: selection rules, the subprocess worker protocol,
and — the property everything else rests on — bit-identity of results
across ``inline``, ``pool`` and ``subprocess`` transports.
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro.engine import faults, get_registry, parallel, run_tasks
from repro.engine.transport import (
    InlineTransport,
    ProcessPoolTransport,
    SubprocessWorkerTransport,
    available_transports,
    get_transport,
    resolve_transport,
)
from repro.errors import TaskTimeoutError, TransportError
from repro.ir.backends.ssa import ensemble_moments, reaction_run
from tests.ir.test_reaction_ir import birth_death_ir

GRID = np.linspace(0.0, 2.0, 9)


def _square(x):
    return x * x


def _noisy_square(x):
    # Pollutes stdout on purpose: the worker's result frame travels on a
    # dedicated descriptor, so user prints must not corrupt it.
    print(f"computing {x}", flush=True)
    return x * x


def _boom(x):
    raise ValueError(f"task {x} exploded")


@pytest.fixture(autouse=True)
def _fast_retries(monkeypatch):
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")


class TestSelection:
    def test_available_transports(self):
        assert available_transports() == (
            "inline", "pool", "remote", "subprocess"
        )

    def test_get_by_name(self):
        assert isinstance(get_transport("inline"), InlineTransport)
        assert isinstance(get_transport("pool"), ProcessPoolTransport)
        assert isinstance(get_transport("subprocess"), SubprocessWorkerTransport)

    def test_unknown_transport_rejected(self):
        with pytest.raises(TransportError, match="carrier-pigeon"):
            get_transport("carrier-pigeon")

    def test_auto_resolution_by_worker_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRANSPORT", raising=False)
        assert resolve_transport(None, 1).name == "inline"
        assert resolve_transport(None, 4).name == "pool"

    def test_environment_selects_transport(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSPORT", "subprocess")
        assert resolve_transport(None, 1).name == "subprocess"
        assert resolve_transport(None, 8).name == "subprocess"

    def test_explicit_name_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSPORT", "subprocess")
        assert resolve_transport("inline", 8).name == "inline"

    def test_config_transport_validated_eagerly(self):
        with pytest.raises(TransportError, match="unknown transport"):
            with parallel(workers=2, transport="smoke-signals"):
                pass

    def test_capability_flags(self):
        assert not get_transport("inline").isolates_tasks
        for name in ("pool", "subprocess", "remote"):
            assert get_transport(name).isolates_tasks, name


class TestSubmitCollect:
    def test_submit_then_collect_in_order(self):
        assert get_transport("inline").run(_square, [1, 2, 3]) == [1, 4, 9]

    def test_on_result_sees_every_index(self):
        seen = []
        get_transport("subprocess").run(
            _square, [5, 6], on_result=lambda i, v: seen.append((i, v))
        )
        assert sorted(seen) == [(0, 25), (1, 36)]


class TestSubprocessWorkers:
    def test_results_in_task_order(self):
        out = get_transport("subprocess").run(_square, list(range(6)), workers=3)
        assert out == [x * x for x in range(6)]

    def test_fresh_process_per_task(self):
        reg = get_registry()
        before = reg.counter("engine.subprocess_tasks")
        get_transport("subprocess").run(_square, [1, 2, 3], workers=2)
        assert reg.counter("engine.subprocess_tasks") == before + 3

    def test_stdout_pollution_cannot_corrupt_result_frames(self):
        out = get_transport("subprocess").run(_noisy_square, [7, 8], workers=2)
        assert out == [49, 64]

    def test_task_exception_reraised_after_retries(self):
        with parallel(max_retries=0):
            with pytest.raises(ValueError, match="task 3 exploded"):
                run_tasks(_boom, [3], transport="subprocess")

    def test_injected_crash_retried_then_recovers(self):
        reg = get_registry()
        before = reg.counter("engine.worker_crashes")
        with faults.inject(faults.FaultSpec("worker_crash", task_index=1)) as plan:
            with parallel(workers=2, max_retries=2):
                out = run_tasks(_square, [1, 2, 3], transport="subprocess")
        assert out == [1, 4, 9]
        assert plan.fired() == 1
        assert reg.counter("engine.worker_crashes") == before + 1

    def test_persistent_crash_raises_transport_error(self):
        with faults.inject(faults.FaultSpec("worker_crash", times=9)):
            with parallel(max_retries=1):
                with pytest.raises(TransportError, match="exited with code 70"):
                    run_tasks(_square, [1], transport="subprocess")

    def test_timeout_kills_worker_and_raises(self):
        with faults.inject(
            faults.FaultSpec("task_timeout", task_index=0, sleep=10.0, times=5)
        ):
            with parallel(task_timeout=0.5, max_retries=1):
                with pytest.raises(TaskTimeoutError, match="deadline"):
                    run_tasks(_square, [1], transport="subprocess")


class TestWorkerReaping:
    """Regression: a timed-out worker must be killed AND waited on.

    The original timeout path killed the child but never reaped it,
    leaking a zombie per expired attempt under a long-lived parent (the
    job service made this a real resource bug, not a test artifact).
    """

    def test_timed_out_workers_are_killed_and_reaped(self, monkeypatch):
        from repro.engine import transport as transport_mod

        spawned = []
        subprocess_module = transport_mod.subprocess

        class SpyPopen(subprocess_module.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                spawned.append(self)

        monkeypatch.setattr(subprocess_module, "Popen", SpyPopen)
        reg = get_registry()
        before = reg.counter("engine.worker_reaped")
        with faults.inject(
            faults.FaultSpec("task_timeout", task_index=0, sleep=10.0, times=5)
        ):
            with parallel(task_timeout=0.3, max_retries=1):
                with pytest.raises(TaskTimeoutError):
                    run_tasks(_square, [1], transport="subprocess")
        assert len(spawned) == 2  # first attempt + one retry
        for proc in spawned:
            assert proc.returncode is not None, "zombie worker left behind"
        assert reg.counter("engine.worker_reaped") == before + 2

    def test_normal_exit_is_not_counted_as_a_reap(self):
        reg = get_registry()
        before = reg.counter("engine.worker_reaped")
        out = get_transport("subprocess").run(_square, [3])
        assert out == [9]
        assert reg.counter("engine.worker_reaped") == before


class TestRunTasksIntegration:
    def test_transport_argument_beats_config(self):
        reg = get_registry()
        before = reg.counter("engine.subprocess_tasks")
        with parallel(workers=2, transport="pool"):
            out = run_tasks(_square, [2, 3], transport="subprocess")
        assert out == [4, 9]
        assert reg.counter("engine.subprocess_tasks") == before + 2

    def test_environment_transport_reaches_run_tasks(self, monkeypatch):
        reg = get_registry()
        monkeypatch.setenv("REPRO_TRANSPORT", "subprocess")
        before = reg.counter("engine.subprocess_tasks")
        out = run_tasks(_square, [4])
        assert out == [16]
        assert reg.counter("engine.subprocess_tasks") == before + 1


class TestCrossTransportBitIdentity:
    """The acceptance property: the same seeded ensemble, bit for bit,
    however the chunks are shipped."""

    def test_ensemble_identical_on_all_transports(self):
        ir = birth_death_ir()
        ref = ensemble_moments(reaction_run, ir, GRID, 100, seed=29)
        for name in ("inline", "pool", "subprocess"):
            with parallel(workers=3, transport=name):
                out = ensemble_moments(reaction_run, ir, GRID, 100, seed=29)
            assert_array_equal(ref.mean, out.mean, err_msg=name)
            assert_array_equal(ref.var, out.var, err_msg=name)
            assert ref.events == out.events, name

    def test_plain_batches_identical_on_all_transports(self):
        tasks = list(range(10))
        ref = [run_tasks(_square, tasks, transport=name) for name in
               ("inline", "pool", "subprocess")]
        assert ref[0] == ref[1] == ref[2] == [x * x for x in tasks]
