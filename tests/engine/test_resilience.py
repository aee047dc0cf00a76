"""Chaos suite: injected failures must not change a single bit.

Every test follows the same shape — compute an unperturbed sequential
reference, re-run the same workload under ``engine.parallel`` with a
deterministic injected fault (worker crash, task error, task timeout,
corrupt disk-cache entry, forced solver non-convergence, mid-ensemble
interruption), and assert the recovered result is bit-identical
(``assert_array_equal``, not ``allclose``) to the reference.
"""

import multiprocessing
import time

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro.engine import (
    cached,
    configure_cache,
    configure_checkpoints,
    faults,
    get_cache,
    get_registry,
    get_transport,
    parallel,
    run_tasks,
    seal_payload,
    spawn_seeds,
    unseal_payload,
)
from repro.engine.resilience import (
    Carrier,
    CheckpointStore,
    ResiliencePolicy,
    resolve_policy,
    run_units,
)
from repro.errors import ConvergenceError, TaskTimeoutError
from repro.ir.backends.ssa import ensemble_moments, reaction_run
from repro.pepa.ctmc import ctmc_of
from repro.pepa.models import get_model
from repro.pepa.statespace import derive
from tests.ir.test_reaction_ir import birth_death_ir

GRID = np.linspace(0.0, 2.0, 9)


def _square(x):
    return x * x


# Module-level so it pickles into pool workers.  ``fail_after`` arms a
# deliberate mid-ensemble death once that many realizations have run in
# this process; ``checkpoint_name`` keeps the interrupted and resumed
# runs on the same checkpoint key.
_CHAOS = {"count": 0, "fail_after": None}


def _flaky_reaction_run(payload, grid, rng):
    if _CHAOS["fail_after"] is not None and _CHAOS["count"] >= _CHAOS["fail_after"]:
        raise faults.InjectedFaultError("deliberate mid-ensemble death")
    _CHAOS["count"] += 1
    return reaction_run(payload, grid, rng)


_flaky_reaction_run.checkpoint_name = "flaky-reaction-run"


@pytest.fixture(autouse=True)
def _fast_retries(monkeypatch):
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")


class TestFaultHarness:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            faults.FaultSpec("meteor_strike")

    def test_inactive_by_default(self):
        assert not faults.active()
        assert faults.should_fire("task_error") is None

    def test_fires_exactly_n_times(self):
        with faults.inject(faults.FaultSpec("task_error", times=2)) as plan:
            assert faults.should_fire("task_error") is not None
            assert faults.should_fire("task_error") is not None
            assert faults.should_fire("task_error") is None
            assert plan.fired() == 2
            assert plan.fired("task_error") == 2
            assert plan.fired("worker_crash") == 0
        assert not faults.active()

    def test_task_index_and_backend_filters(self):
        with faults.inject(
            faults.FaultSpec("worker_crash", task_index=3),
            faults.FaultSpec("solver_nonconverge", backend="gmres"),
        ):
            assert faults.should_fire("worker_crash", task_index=1) is None
            assert faults.should_fire("solver_nonconverge", backend="direct") is None
            assert faults.should_fire("worker_crash", task_index=3) is not None
            assert faults.should_fire("solver_nonconverge", backend="gmres") is not None


class TestSupervisedRetries:
    """The lifecycle outcomes every isolating carrier shares."""

    def test_task_error_retried_order_preserved(self, carrier):
        reg = get_registry()
        before = reg.counter("engine.retries")
        with faults.inject(faults.FaultSpec("task_error", task_index=2, times=2)) as plan:
            with parallel(workers=2, max_retries=3):
                out = run_tasks(_square, list(range(6)), transport=carrier)
        assert out == [x * x for x in range(6)]
        assert plan.fired() == 2
        assert reg.counter("engine.retries") == before + 2

    def test_retry_budget_exhaustion_raises(self, carrier):
        with faults.inject(faults.FaultSpec("task_error", task_index=0, times=9)):
            with parallel(workers=2, max_retries=1):
                with pytest.raises(faults.InjectedFaultError):
                    run_tasks(_square, [1, 2, 3], transport=carrier)

    def test_timeout_retried_then_recovers(self):
        reg = get_registry()
        before = reg.counter("engine.task_timeouts")
        with faults.inject(
            faults.FaultSpec("task_timeout", task_index=1, sleep=5.0)
        ) as plan:
            with parallel(workers=2, task_timeout=0.4, max_retries=2):
                out = run_tasks(_square, [1, 2, 3])
        assert out == [1, 4, 9]
        assert plan.fired() == 1
        assert reg.counter("engine.task_timeouts") == before + 1

    def test_timeout_exhaustion_raises_timeout_error(self, carrier):
        # The deadline must cover a cold subprocess worker's start-up.
        with faults.inject(
            faults.FaultSpec("task_timeout", task_index=0, sleep=5.0, times=5)
        ):
            with parallel(workers=2, task_timeout=1.0, max_retries=1):
                with pytest.raises(TaskTimeoutError, match="task 0 exceeded .* deadline"):
                    run_tasks(_square, [1, 2], transport=carrier)

    def test_unpicklable_task_runs_in_parent(self, carrier):
        reg = get_registry()
        before = reg.counter("engine.pickle_fallback")
        out = get_transport(carrier).run(lambda x: x + 1, [1, 2], workers=2)
        assert out == [2, 3]
        assert reg.counter("engine.pickle_fallback") == before + 2

    def test_worker_crash_rebuilds_pool(self):
        reg = get_registry()
        before = reg.counter("engine.pool_rebuilds")
        with faults.inject(faults.FaultSpec("worker_crash", task_index=1)) as plan:
            with parallel(workers=2):
                out = run_tasks(_square, list(range(5)))
        assert out == [x * x for x in range(5)]
        assert plan.fired() == 1
        assert reg.counter("engine.pool_rebuilds") == before + 1

    def test_repeated_crashes_degrade_to_sequential(self):
        reg = get_registry()
        before = reg.counter("engine.degraded_sequential")
        # More broken pools than the pool carrier's max_lost_rounds
        # allows: the parent must finish the batch itself.  Faults fire
        # only inside pool workers, so the degraded path is unperturbed
        # by construction.
        with faults.inject(faults.FaultSpec("worker_crash", times=50)):
            with parallel(workers=2):
                out = run_tasks(_square, list(range(8)))
        assert out == [x * x for x in range(8)]
        assert reg.counter("engine.degraded_sequential") == before + 1

    def test_pool_that_keeps_dying_is_rebuilt_a_bounded_number_of_times(self):
        # Every broken pool charges each unit in flight a retry, so
        # without a batch-level cap a large batch would restart the pool
        # about n * (max_retries + 1) / workers times before finishing.
        reg = get_registry()
        rebuilds = reg.counter("engine.pool_rebuilds")
        degraded = reg.counter("engine.degraded_sequential")
        with faults.inject(faults.FaultSpec("worker_crash", times=1000)):
            with parallel(workers=2):
                out = run_tasks(_square, list(range(40)), transport="pool")
        assert out == [x * x for x in range(40)]
        assert reg.counter("engine.pool_rebuilds") - rebuilds <= 3
        assert reg.counter("engine.degraded_sequential") == degraded + 1

    def test_backoff_does_not_hold_up_other_units(self):
        events = []
        rounds = [
            [(0, "err", ValueError("boom"), None)],
            [(1, "ok", 1, None)],
            [(0, "ok", 0, None)],
        ]

        class Recording(Carrier):
            def dispatch(self, index, fn, task):
                events.append(("dispatch", index, time.monotonic()))
                return True

            def wait(self, timeout):
                events.append(("wait", None, time.monotonic()))
                return rounds.pop(0) if rounds else []

            def abandon(self, indices):
                pass

        policy = ResiliencePolicy(max_retries=1, backoff_base=0.5)
        assert run_units(abs, [0, 1], workers=2, policy=policy, carrier=Recording) == [0, 1]
        waits = [at for kind, _, at in events if kind == "wait"]
        redispatch = [at for kind, i, at in events if kind == "dispatch" and i == 0][1]
        # Unit 1's answer is collected at once; unit 0 waits its backoff.
        assert waits[1] - waits[0] < 0.25
        assert redispatch - waits[0] >= 0.5


def _no_pool_worker_survives(seconds=2.0):
    deadline = time.monotonic() + seconds
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    return multiprocessing.active_children() == []


class TestPoolAbandonReapsWorkers:
    """Regression: abandoning a pool must terminate its workers.

    The pool was shut down before its process table was read, and
    shutdown() empties that table, so a timed-out unit's worker kept
    running its stalled task long after the batch had failed.
    """

    def test_timed_out_pool_leaves_no_worker_running(self):
        with faults.inject(faults.FaultSpec("task_timeout", sleep=30.0, times=9)):
            with parallel(workers=2, task_timeout=0.3, max_retries=1):
                with pytest.raises(TaskTimeoutError):
                    run_tasks(_square, [1, 2], transport="pool")
        assert _no_pool_worker_survives()


class TestEnsembleBitIdentity:
    def test_worker_crash_preserves_ensemble_bits(self):
        ir = birth_death_ir()
        ref = ensemble_moments(reaction_run, ir, GRID, 200, seed=11)
        with faults.inject(faults.FaultSpec("worker_crash", task_index=3)) as plan:
            with parallel(workers=4):
                out = ensemble_moments(reaction_run, ir, GRID, 200, seed=11)
        assert plan.fired() == 1
        assert_array_equal(ref.mean, out.mean)
        assert_array_equal(ref.var, out.var)
        assert ref.events == out.events

    def test_task_error_preserves_ensemble_bits(self):
        ir = birth_death_ir()
        ref = ensemble_moments(reaction_run, ir, GRID, 100, seed=3)
        with faults.inject(faults.FaultSpec("task_error", task_index=2, times=2)):
            with parallel(workers=4):
                out = ensemble_moments(reaction_run, ir, GRID, 100, seed=3)
        assert_array_equal(ref.mean, out.mean)
        assert_array_equal(ref.var, out.var)


class TestSolverFallback:
    def test_forced_gmres_nonconvergence_falls_back_bit_identical(self):
        chain = ctmc_of(derive(get_model("pc_lan_4")))
        ref = chain.steady_state()
        reg = get_registry()
        before = reg.counter("ir.fallback.used")
        with faults.inject(
            faults.FaultSpec("solver_nonconverge", backend="gmres")
        ) as plan:
            out = chain.steady_state(method="gmres")
        assert plan.fired() == 1
        assert out.method == "direct"  # served by the sparse fallback
        assert out.meta["fallback_from"] == "gmres"
        assert "injected" in out.meta["fallback_error"]
        assert reg.counter("ir.fallback.used") == before + 1
        assert reg.counter("ir.fallback.steady.gmres->sparse") >= 1
        assert_array_equal(ref.pi, out.pi)

    def test_fallback_disabled_propagates_error(self):
        from repro.ir import solve

        chain = ctmc_of(derive(get_model("pc_lan_4")))
        with faults.inject(faults.FaultSpec("solver_nonconverge", backend="gmres")):
            with pytest.raises(ConvergenceError, match="injected"):
                solve(chain.lower(), "steady", backend="gmres", fallback=False)


class TestCacheCorruption:
    def test_seal_roundtrip_and_truncation(self):
        blob = seal_payload(b"hello world")
        assert unseal_payload(blob) == b"hello world"
        assert unseal_payload(blob[:-1]) is None
        assert unseal_payload(blob[: len(blob) // 2]) is None
        assert unseal_payload(b"") is None
        flipped = bytearray(blob)
        flipped[0] ^= 0xFF
        assert unseal_payload(bytes(flipped)) is None

    def test_corrupt_disk_entry_quarantined_and_recomputed(self, tmp_path):
        configure_cache(disk_dir=tmp_path)
        try:
            reg = get_registry()
            value = np.arange(8.0)
            with faults.inject(faults.FaultSpec("cache_corrupt")) as plan:
                got, status = cached("chaos", (1, 2), lambda: value)
            assert plan.fired() == 1
            assert status == "miss"
            before = reg.counter("cache.corrupt_entries")
            get_cache().clear()  # drop memory so the torn disk file is read
            got, status = cached("chaos", (1, 2), lambda: value)
            assert status == "miss"  # corrupt entry counts as a miss
            assert_array_equal(got, value)
            assert reg.counter("cache.corrupt_entries") == before + 1
            assert list(tmp_path.glob("*.corrupt")), "torn entry not quarantined"
            # The recompute rewrote a good entry: next read is a hit.
            get_cache().clear()
            got, status = cached("chaos", (1, 2), lambda: value)
            assert status == "hit"
            assert_array_equal(got, value)
        finally:
            configure_cache(disk_dir=None)

    def test_legacy_unsealed_entry_treated_as_corrupt(self, tmp_path):
        import pickle

        configure_cache(disk_dir=tmp_path)
        try:
            key_file = tmp_path / "legacy-key.pkl"
            key_file.write_bytes(pickle.dumps([1, 2, 3]))
            get_cache().clear()
            assert get_cache().get("legacy-key") is get_cache().get("no-such-key")
            assert not key_file.exists()  # quarantined away
        finally:
            configure_cache(disk_dir=None)


class TestCheckpointedEnsembles:
    def test_interrupted_ensemble_resumes_bit_identical(self, tmp_path):
        ir = birth_death_ir()
        ref = ensemble_moments(reaction_run, ir, GRID, 200, seed=7)
        reg = get_registry()
        configure_checkpoints(tmp_path)
        try:
            _CHAOS.update(count=0, fail_after=60)
            with pytest.raises(faults.InjectedFaultError):
                ensemble_moments(_flaky_reaction_run, ir, GRID, 200, seed=7)
            # Chunks 0 and 1 (50 realizations) completed and were saved
            # before the death 10 realizations into chunk 2.
            saved = list(tmp_path.glob("ensemble-*/chunk-*.pkl"))
            assert len(saved) == 2
            _CHAOS.update(count=0, fail_after=None)
            resumes = reg.counter("engine.checkpoint_resumes")
            out = ensemble_moments(_flaky_reaction_run, ir, GRID, 200, seed=7)
            assert reg.counter("engine.checkpoint_resumes") == resumes + 1
            assert _CHAOS["count"] == 150  # only chunks 2..7 recomputed
            assert_array_equal(ref.mean, out.mean)
            assert_array_equal(ref.var, out.var)
            assert ref.events == out.events
            # Completion discards the batch's checkpoints.
            assert not list(tmp_path.glob("ensemble-*/chunk-*.pkl"))
        finally:
            _CHAOS.update(count=0, fail_after=None)
            configure_checkpoints(None)

    def test_run_tasks_skips_checkpointed_indices(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("batch", 0, 100)
        store.save("batch", 2, 900)
        configure_checkpoints(tmp_path)
        try:
            out = run_tasks(_square, [7, 8, 9], checkpoint="batch")
        finally:
            configure_checkpoints(None)
        # Indices 0 and 2 come from the store, only index 1 is computed.
        assert out == [100, 64, 900]
        assert not (tmp_path / "batch").exists()

    def test_corrupt_checkpoint_chunk_recomputed(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("batch", 0, 123)
        chunk = tmp_path / "batch" / "chunk-000000.pkl"
        chunk.write_bytes(chunk.read_bytes()[:10])
        reg = get_registry()
        before = reg.counter("engine.checkpoint_corrupt")
        assert store.load("batch", 3) == {}
        assert reg.counter("engine.checkpoint_corrupt") == before + 1
        configure_checkpoints(tmp_path)
        try:
            assert run_tasks(_square, [5], checkpoint="batch") == [25]
        finally:
            configure_checkpoints(None)

    def test_checkpoint_dir_from_environment(self, tmp_path, monkeypatch):
        from repro.engine import resilience
        from repro.engine.resilience import get_checkpoint_store

        # Clear any configure_checkpoints override so the env decides.
        monkeypatch.setattr(resilience, "_CHECKPOINT_DIR", resilience._CKPT_UNSET)
        monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
        assert get_checkpoint_store() is None
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path))
        store = get_checkpoint_store()
        assert store is not None and store.root == tmp_path


class TestCheckpointLayoutValidation:
    def test_layout_mismatch_discards_with_warning(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("batch", 0, 1.5, n_tasks=8)
        assert store.load("batch", 8) == {0: 1.5}
        reg = get_registry()
        before = reg.counter("engine.checkpoint_layout_mismatch")
        with pytest.warns(RuntimeWarning, match="different chunk layout"):
            assert store.load("batch", 20) == {}
        assert reg.counter("engine.checkpoint_layout_mismatch") == before + 1
        # The stale batch was discarded entirely, not merely skipped.
        assert store.load("batch", 8) == {}

    def test_legacy_batch_without_layout_record_still_loads(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("batch", 1, 42)  # legacy caller: no layout recorded
        assert store.load("batch", 8) == {1: 42}
        assert store.load("batch", 3) == {1: 42}  # nothing to validate

    def test_chunk_size_change_between_interrupt_and_resume(
        self, tmp_path, monkeypatch
    ):
        """Regression: the ensemble checkpoint key hashes (runner,
        payload, grid, n_runs, seed) but not CHUNK_RUNS, so partials
        written before a chunk-size change land on the *same* key as the
        resumed run.  Without the layout record the resume would merge
        25-run partials into a 10-run reduction — silently, and wrongly.
        """
        from repro.ir.backends import ssa as ssa_module

        ir = birth_death_ir()
        reg = get_registry()
        configure_checkpoints(tmp_path)
        try:
            _CHAOS.update(count=0, fail_after=60)
            with pytest.raises(faults.InjectedFaultError):
                ensemble_moments(_flaky_reaction_run, ir, GRID, 200, seed=21)
            # Two 25-run chunks survived the interruption.
            assert len(list(tmp_path.glob("ensemble-*/chunk-*.pkl"))) == 2
            # The run restarts under a build with a different chunk size.
            monkeypatch.setattr(ssa_module, "CHUNK_RUNS", 10)
            _CHAOS.update(count=0, fail_after=None)
            before = reg.counter("engine.checkpoint_layout_mismatch")
            with pytest.warns(RuntimeWarning, match="different chunk layout"):
                out = ensemble_moments(_flaky_reaction_run, ir, GRID, 200, seed=21)
            assert reg.counter("engine.checkpoint_layout_mismatch") == before + 1
            # Every realization was recomputed; no stale partial leaked in.
            assert _CHAOS["count"] == 200
        finally:
            _CHAOS.update(count=0, fail_after=None)
            configure_checkpoints(None)
        ref = ensemble_moments(reaction_run, ir, GRID, 200, seed=21)
        assert_array_equal(ref.mean, out.mean)
        assert_array_equal(ref.var, out.var)
        assert ref.events == out.events


class TestPolicyResolution:
    def test_defaults(self):
        policy = resolve_policy()
        assert policy.task_timeout is None
        assert policy.max_retries == 2

    def test_environment_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "1.5")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "5")
        policy = resolve_policy()
        assert policy.task_timeout == 1.5
        assert policy.max_retries == 5

    def test_arguments_beat_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "1.5")
        policy = resolve_policy(task_timeout=9.0, max_retries=0)
        assert policy.task_timeout == 9.0
        assert policy.max_retries == 0

    def test_malformed_environment_warns(self, monkeypatch):
        from repro.engine.remote import FleetConfig
        from repro.service.server import ServiceConfig

        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "soon")
        with pytest.warns(RuntimeWarning, match="REPRO_TASK_TIMEOUT"):
            policy = resolve_policy()
        assert policy.task_timeout is None
        monkeypatch.setenv("REPRO_REMOTE_LEASE", "long")
        with pytest.warns(RuntimeWarning, match="REPRO_REMOTE_LEASE"):
            assert FleetConfig.from_env().lease_seconds == 15.0
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "many")
        with pytest.warns(RuntimeWarning, match="REPRO_SERVE_WORKERS"):
            assert ServiceConfig.from_env().workers == 2

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(task_timeout=0.0)
        with pytest.raises(ValueError):
            ResiliencePolicy(max_retries=-1)


class TestCombinedChaos:
    def test_all_faults_at_once_bit_identical(self, tmp_path):
        """The acceptance scenario: a worker crash, a corrupt disk-cache
        entry, and a forced GMRES non-convergence, all in one block —
        the ensemble and the Edinburgh steady solve both complete and
        match the unperturbed sequential references bit for bit."""
        ir = birth_death_ir()
        chain = ctmc_of(derive(get_model("pc_lan_4")))
        ref_ens = ensemble_moments(reaction_run, ir, GRID, 200, seed=17)
        ref_pi = chain.steady_state()
        payload = np.linspace(0.0, 1.0, 32)
        configure_cache(disk_dir=tmp_path)
        try:
            with faults.inject(
                faults.FaultSpec("worker_crash", task_index=3),
                faults.FaultSpec("cache_corrupt"),
                faults.FaultSpec("solver_nonconverge", backend="gmres"),
            ) as plan:
                cached("chaos2", (3, 4), lambda: payload)  # torn write
                with parallel(workers=4):
                    ens = ensemble_moments(reaction_run, ir, GRID, 200, seed=17)
                pi = chain.steady_state(method="gmres")
                get_cache().clear()
                got, status = cached("chaos2", (3, 4), lambda: payload)
            assert plan.fired() == 3
            assert_array_equal(ref_ens.mean, ens.mean)
            assert_array_equal(ref_ens.var, ens.var)
            assert_array_equal(ref_pi.pi, pi.pi)
            assert pi.meta["fallback_from"] == "gmres"
            assert status == "miss"
            assert_array_equal(got, payload)
        finally:
            configure_cache(disk_dir=None)


class TestCheckpointTTLPurge:
    """Satellite of the service work: a long-lived process must not let
    abandoned partials accumulate forever under the checkpoint root."""

    @staticmethod
    def _age(directory, seconds):
        import os
        import time as _time

        stamp = _time.time() - seconds
        for entry in directory.iterdir():
            os.utime(entry, (stamp, stamp))
        os.utime(directory, (stamp, stamp))

    def test_purges_only_expired_batches(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("stale", 0, 1, n_tasks=4)
        store.save("fresh", 0, 2, n_tasks=4)
        self._age(tmp_path / "stale", 3600.0)
        reg = get_registry()
        before = reg.counter("engine.checkpoint_purged")
        assert store.purge_expired(ttl_seconds=600.0) == 1
        assert not (tmp_path / "stale").exists()
        assert (tmp_path / "fresh").exists()
        assert reg.counter("engine.checkpoint_purged") == before + 1

    def test_batch_age_is_its_newest_chunk(self, tmp_path):
        # A live job keeps sealing chunks: one recent chunk protects the
        # whole batch even when its first chunks are old.
        store = CheckpointStore(tmp_path)
        store.save("live", 0, 1, n_tasks=4)
        self._age(tmp_path / "live", 3600.0)
        store.save("live", 1, 2, n_tasks=4)
        assert store.purge_expired(ttl_seconds=600.0) == 0
        assert (tmp_path / "live").exists()

    def test_missing_root_and_bad_ttl(self, tmp_path):
        store = CheckpointStore(tmp_path / "never-created")
        assert store.purge_expired(ttl_seconds=0.0) == 0
        with pytest.raises(ValueError):
            CheckpointStore(tmp_path).purge_expired(ttl_seconds=-1.0)

    def test_resume_after_purge_falls_back_to_clean_run(self, tmp_path):
        # An interrupted batch whose checkpoints were purged must simply
        # recompute everything — correct values, no resume counted.
        store = CheckpointStore(tmp_path)
        store.save("batch", 0, 999_999, n_tasks=3)  # poison partial
        assert store.purge_expired(ttl_seconds=0.0) == 1
        reg = get_registry()
        resumes = reg.counter("engine.checkpoint_resumes")
        configure_checkpoints(tmp_path)
        try:
            out = run_tasks(_square, [4, 5, 6], checkpoint="batch")
        finally:
            configure_checkpoints(None)
        assert out == [16, 25, 36]  # the poison value is gone
        assert reg.counter("engine.checkpoint_resumes") == resumes
