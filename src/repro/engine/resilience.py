"""Fault-tolerant execution: the task-unit lifecycle and checkpoints.

* **The task-unit lifecycle** (:func:`run_units`): one event-driven
  state machine decides, for every transport that isolates tasks, how
  many times a unit is attempted, how long it may run, what each kind
  of failure costs, when to back off, when to give up, and which of two
  duplicate answers wins.  A transport supplies only a :class:`Carrier`
  — dispatch a unit, wait for outcomes, abandon a unit — with no retry
  logic of its own.
* **Checkpoint store** (:class:`CheckpointStore`): per-task partial
  results persisted under ``$REPRO_CHECKPOINT_DIR`` keyed by the same
  content hash as the result cache, so an interrupted ensemble resumes
  from its completed chunks.  Entries carry the cache's SHA-256
  integrity trailer; a torn chunk is quarantined and recomputed.

Determinism is preserved by construction: a retried task re-runs the
*same* ``(fn, task)`` pair — seeds were spawned per task up front — and
results are always returned (and reduced by callers) in task order, so
a batch that survived a crash, a timeout, and a re-dispatch is
bit-identical to an undisturbed sequential run.

Policy knobs resolve, in order: explicit ``parallel(...)`` arguments,
then the environment (``REPRO_TASK_TIMEOUT``, ``REPRO_MAX_RETRIES``,
``REPRO_RETRY_BACKOFF``), then the defaults below.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import time
import warnings
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.engine import faults
from repro.engine.cancellation import current_scope
from repro.engine.metrics import get_registry
from repro.errors import TaskTimeoutError, TransportError

__all__ = [
    "ResiliencePolicy",
    "resolve_policy",
    "env_number",
    "Carrier",
    "run_units",
    "CheckpointStore",
    "configure_checkpoints",
    "get_checkpoint_store",
]


@dataclass(frozen=True)
class ResiliencePolicy:
    """How :func:`run_units` reacts to failing task units.

    Attributes
    ----------
    task_timeout:
        Per-unit wall-clock deadline in seconds (``None`` = no limit).
        Measured from when the unit starts: its dispatch (at most one
        unit per worker is in flight) or, on the fleet, its lease
        grant — queueing time is never charged to the unit.
    max_retries:
        How many times one unit may be re-run after a failure of any
        kind (task error, lost delivery, deadline overrun) before the
        batch gives up on it.
    backoff_base / backoff_cap:
        Exponential backoff before retry ``k`` is
        ``min(cap, base * 2**(k-1))`` seconds; base 0 disables it.
    """

    task_timeout: float | None = None
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0

    def __post_init__(self):
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive, got {self.task_timeout}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")


def env_number(name: str, default, convert):
    """``convert($name)``; unset or empty gives ``default``, and a
    malformed value warns and gives ``default`` too."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return convert(raw)
    except ValueError:
        warnings.warn(
            f"ignoring malformed {name}={raw!r}; using default {default!r}",
            RuntimeWarning,
            stacklevel=3,
        )
        return default


def resolve_policy(
    task_timeout: float | None = None,
    max_retries: int | None = None,
) -> ResiliencePolicy:
    """Build the effective policy from arguments, environment, defaults."""
    if task_timeout is None:
        task_timeout = env_number("REPRO_TASK_TIMEOUT", None, float)
        if task_timeout is not None and task_timeout <= 0:
            task_timeout = None
    if max_retries is None:
        max_retries = max(0, env_number("REPRO_MAX_RETRIES", 2, int))
    backoff = env_number("REPRO_RETRY_BACKOFF", 0.05, float)
    return ResiliencePolicy(
        task_timeout=task_timeout,
        max_retries=max_retries,
        backoff_base=max(0.0, backoff),
    )


# ---------------------------------------------------------------------------
# The task-unit lifecycle
# ---------------------------------------------------------------------------

#: How often a wait re-checks a live cancel scope.
_CANCEL_POLL_SECONDS = 0.1


def _invoke(fn: Callable, index: int, task):
    """Worker-side shim: enact planned faults, then run the task."""
    spec = faults.should_fire("worker_crash", task_index=index)
    if spec is not None:
        os._exit(70)
    spec = faults.should_fire("task_timeout", task_index=index)
    if spec is not None:
        time.sleep(spec.sleep)
    spec = faults.should_fire("task_error", task_index=index)
    if spec is not None:
        raise faults.InjectedFaultError(f"injected task error on task {index}")
    return fn(task)


class Carrier:
    """How one transport moves task units; it never retries anything.

    :func:`run_units` builds one per batch as ``carrier(workers)`` and
    drives it through four calls:

    ``dispatch(index, fn, task) -> bool``
        Start one unit.  ``False`` means the unit cannot travel (it does
        not pickle); the parent then runs it itself.
    ``wait(timeout) -> list of (index, kind, value, digest)``
        Block up to ``timeout`` seconds (``None``: until something
        happens) for outcomes.  ``kind`` is ``"ok"`` (``value`` is the
        result, ``digest`` the result frame's SHA-256 or ``None``),
        ``"err"`` (the task raised ``value``), ``"lost"`` (the delivery
        failed — the worker died, the frame was corrupt, the lease was
        lost; ``value`` is a :class:`~repro.errors.TransportError`),
        ``"unpicklable"`` (the result cannot travel back),
        ``"requeue"`` (the unit was dropped through no fault of its
        own and is re-dispatched free of charge) or ``"started"``
        (``value`` is the monotonic time the unit began running).
    ``abandon(indices)``
        Stop units the parent gave up on, leaving nothing running.
    ``close()``
        End the batch; whatever is still running is abandoned.
    """

    #: What a unit whose deliveries keep failing costs once its retries
    #: are spent: ``"degrade"`` runs it in the parent, ``"raise"``
    #: propagates its :class:`~repro.errors.TransportError`.
    exhausted_delivery = "degrade"
    #: After this many ``wait()`` rounds that lost a delivery, the rest
    #: of the batch runs in the parent (``None``: no such limit).
    max_lost_rounds: int | None = None
    #: ``True``: a unit's deadline runs from its dispatch; ``False``: from
    #: the ``"started"`` outcome the carrier reports for it.
    starts_on_dispatch = True

    def __init__(self, workers: int):
        self.workers = workers

    def capacity(self) -> int:
        """How many units may be in flight at once."""
        return self.workers

    def dispatch(self, index: int, fn: Callable, task) -> bool:
        raise NotImplementedError

    def wait(self, timeout: float | None) -> list[tuple]:
        raise NotImplementedError

    def abandon(self, indices: Sequence[int]) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


def _backoff(policy: ResiliencePolicy, attempt: int) -> float:
    """Seconds between a unit's failure and its retry ``attempt``."""
    return min(policy.backoff_cap, policy.backoff_base * 2 ** max(0, attempt - 1))


def run_units(
    fn: Callable,
    tasks: Sequence,
    *,
    workers: int,
    policy: ResiliencePolicy | None = None,
    on_result: Callable[[int, object], None] | None = None,
    carrier: Callable[[int], Carrier],
) -> list:
    """Map ``fn`` over ``tasks`` through ``carrier``; results in task order.

    ``on_result(index, value)`` fires once per unit as it completes (in
    completion order) — the checkpointing hook.  At most
    ``carrier.capacity()`` units are in flight.  Every failure of a
    unit costs one of its ``max_retries`` re-runs, dispatched once its
    backoff has passed (no other unit waits for it); once they are
    spent:

    * a task exception propagates as itself;
    * a deadline overrun raises :class:`~repro.errors.TaskTimeoutError`;
    * a lost delivery runs the unit in the parent or raises, as the
      carrier's ``exhausted_delivery`` declares.

    A carrier that keeps losing deliveries (more than its
    ``max_lost_rounds``) hands the rest of the batch to the parent.  A
    unit that cannot be pickled (either way) runs in the parent
    (``engine.pickle_fallback``).  The first answer for a unit wins; a
    second one — a straggler that raced its replacement — must carry
    the same result digest or the batch fails loudly.  The active
    cancel scope is checked between events; cancelling abandons every
    unit in flight.
    """
    tasks = list(tasks)
    n = len(tasks)
    if not n:
        return []
    policy = policy or resolve_policy()
    reg = get_registry()
    scope = current_scope()
    units = carrier(max(1, min(workers, n)))
    results: dict[int, object] = {}
    digests: dict[int, str | None] = {}
    attempts = [0] * n
    queue = deque(range(n))  # units ready to dispatch
    backoff: dict[int, float] = {}  # retried units -> when they may start
    inflight: dict[int, float | None] = {}  # index -> deadline
    in_parent: list[int] = []  # units that cannot travel
    degraded: list[int] = []  # units whose deliveries kept failing
    lost_rounds = 0

    def record(index: int, value, digest: str | None) -> None:
        if index not in results:
            results[index] = value
            digests[index] = digest
            if on_result is not None:
                on_result(index, value)
        elif digest is not None and digests[index] is not None:
            if digest != digests[index]:
                reg.increment("engine.remote_digest_divergence")
                raise TransportError(
                    f"unit {index} produced two divergent results "
                    f"({digests[index][:12]}… vs {digest[:12]}…): "
                    "the same-seed rerun contract is broken"
                )
            reg.increment("engine.remote_digest_agreements")

    def start(index: int, at: float) -> None:
        if policy.task_timeout is not None:
            inflight[index] = at + policy.task_timeout

    def fail(index: int, kind: str, error: BaseException) -> None:
        attempts[index] += 1
        if attempts[index] <= policy.max_retries:
            reg.increment("engine.retries")
            backoff[index] = time.monotonic() + _backoff(policy, attempts[index])
        elif kind == "lost" and units.exhausted_delivery == "degrade":
            degraded.append(index)
        else:
            raise error

    try:
        while queue or inflight or backoff:
            if scope.cancelled():
                units.abandon(list(inflight))
                inflight.clear()
                scope.raise_if_cancelled()
            now = time.monotonic()
            for index in [i for i, at in backoff.items() if at <= now]:
                del backoff[index]
                queue.append(index)
            while queue and len(inflight) < units.capacity():
                index = queue.popleft()
                if index in results:
                    continue
                if units.dispatch(index, fn, tasks[index]):
                    inflight[index] = None
                    if units.starts_on_dispatch:
                        start(index, time.monotonic())
                else:
                    reg.increment("engine.pickle_fallback")
                    in_parent.append(index)
            wakes = [d for d in inflight.values() if d is not None] + list(backoff.values())
            if scope.active:
                wakes.append(now + _CANCEL_POLL_SECONDS)
            timeout = max(0.0, min(wakes) - time.monotonic()) if wakes else None
            if not inflight:  # only backoffs are pending
                time.sleep(timeout or 0.0)
                continue
            outcomes = units.wait(timeout)
            for index, kind, value, digest in outcomes:
                if kind == "ok":
                    inflight.pop(index, None)
                    record(index, value, digest)
                elif index not in inflight:  # news of an abandoned unit
                    continue
                elif kind == "started":
                    start(index, value)
                else:
                    del inflight[index]
                    if kind == "requeue":
                        queue.appendleft(index)
                    elif kind == "unpicklable":
                        reg.increment("engine.pickle_fallback")
                        in_parent.append(index)
                    else:
                        fail(index, kind, value)
            lost_rounds += any(kind == "lost" for _, kind, _, _ in outcomes)
            if units.max_lost_rounds is not None and lost_rounds > units.max_lost_rounds:
                units.abandon(list(inflight))
                degraded += [*inflight, *queue, *backoff]
                for pending in (inflight, queue, backoff):
                    pending.clear()
            now = time.monotonic()
            overdue = [i for i, d in inflight.items() if d is not None and now >= d]
            if overdue:
                units.abandon(overdue)
                for index in overdue:
                    del inflight[index]
                    reg.increment("engine.task_timeouts")
                    fail(index, "timeout", TaskTimeoutError(
                        f"task {index} exceeded its {policy.task_timeout:g}s "
                        f"deadline on every one of {attempts[index] + 1} attempts"
                    ))
    finally:
        units.close()
    if degraded:
        reg.increment("engine.degraded_sequential")
    for index in in_parent + degraded:
        if index not in results:
            record(index, fn(tasks[index]), None)
    return [results[i] for i in range(n)]


# ---------------------------------------------------------------------------
# Checkpoint store
# ---------------------------------------------------------------------------

_CKPT_UNSET = object()
_CHECKPOINT_DIR: object = _CKPT_UNSET


_LAYOUT_NAME = "layout.json"


class CheckpointStore:
    """Per-task partial results on disk, keyed by content hash.

    One directory per batch key; one sealed pickle per completed task
    (``chunk-000042.pkl``).  The payload carries the cache layer's
    SHA-256 integrity trailer, so a partial write from an interrupted
    run is quarantined and recomputed instead of poisoning the resume.

    Alongside the chunks sits a ``layout.json`` recording the batch's
    chunk structure (task count).  :meth:`load` validates it against the
    resuming run: a batch key only hashes the *logical* request
    (model, grid, n_runs, seed), so a chunking-parameter change between
    the interrupted run and the resume would otherwise merge partials
    computed under different chunk boundaries into a silently corrupt
    reduction.  On mismatch the whole batch is discarded with a warning
    (``engine.checkpoint_layout_mismatch``) and recomputed from scratch.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)

    def _dir(self, key: str) -> Path:
        return self.root / key

    def _path(self, key: str, index: int) -> Path:
        return self._dir(key) / f"chunk-{index:06d}.pkl"

    def _validate_layout(self, key: str, n_tasks: int) -> bool:
        """True when the stored chunk layout matches this run's."""
        path = self._dir(key) / _LAYOUT_NAME
        if not path.exists():
            # Legacy batch (pre-layout): nothing to validate against.
            return True
        try:
            stored = json.loads(path.read_text()).get("n_tasks")
        except (OSError, ValueError):
            stored = None
        if stored == n_tasks:
            return True
        warnings.warn(
            f"checkpoint batch {key!r} was written with a different chunk "
            f"layout ({stored!r} tasks, this run has {n_tasks}); discarding "
            "it and recomputing from scratch",
            RuntimeWarning,
            stacklevel=3,
        )
        get_registry().increment("engine.checkpoint_layout_mismatch")
        self.discard(key)
        return False

    def load(self, key: str, n_tasks: int) -> dict[int, object]:
        """All intact completed partials for ``key`` (index -> value)."""
        from repro.engine.cache import unseal_payload

        reg = get_registry()
        done: dict[int, object] = {}
        directory = self._dir(key)
        if not directory.is_dir():
            return done
        if not self._validate_layout(key, n_tasks):
            return done
        for path in sorted(directory.glob("chunk-*.pkl")):
            try:
                index = int(path.stem.split("-", 1)[1])
            except (IndexError, ValueError):
                continue
            if not 0 <= index < n_tasks:
                continue
            try:
                blob = path.read_bytes()
            except OSError:
                continue
            payload = unseal_payload(blob)
            if payload is None:
                reg.increment("engine.checkpoint_corrupt")
                path.unlink(missing_ok=True)
                continue
            try:
                done[index] = pickle.loads(payload)
            except Exception:
                reg.increment("engine.checkpoint_corrupt")
                path.unlink(missing_ok=True)
        return done

    def save(self, key: str, index: int, value, n_tasks: int | None = None) -> None:
        """Persist one completed partial (atomic, integrity-sealed).

        ``n_tasks`` records the batch's chunk layout on first save so a
        later resume can validate it; ``None`` (legacy callers) skips
        the layout record.
        """
        from repro.engine.cache import seal_payload

        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, TypeError, AttributeError):
            return
        path = self._path(key, index)
        path.parent.mkdir(parents=True, exist_ok=True)
        if n_tasks is not None:
            layout = path.parent / _LAYOUT_NAME
            if not layout.exists():
                ltmp = layout.with_name(f"{layout.name}.{os.getpid()}.tmp")
                try:
                    ltmp.write_text(json.dumps({"n_tasks": n_tasks}))
                    ltmp.replace(layout)
                except OSError:
                    ltmp.unlink(missing_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_bytes(seal_payload(payload))
        tmp.replace(path)
        get_registry().increment("engine.checkpoint_saved")

    def discard(self, key: str) -> None:
        """Drop a batch's checkpoints (it completed, or was abandoned)."""
        shutil.rmtree(self._dir(key), ignore_errors=True)

    def purge_expired(self, ttl_seconds: float) -> int:
        """Drop every batch untouched for ``ttl_seconds`` or longer.

        Abandoned partials — from jobs that crashed and were never
        retried — would otherwise accumulate forever under a long-lived
        service.  A batch's age is its *newest* entry's mtime, so a live
        job that keeps sealing chunks is never purged mid-run.  Returns
        the number of batches dropped (counted as
        ``engine.checkpoint_purged``); a purged job simply falls back to
        a clean run on its next attempt.
        """
        if ttl_seconds < 0:
            raise ValueError(f"ttl_seconds must be >= 0, got {ttl_seconds}")
        if not self.root.is_dir():
            return 0
        cutoff = time.time() - ttl_seconds
        purged = 0
        for directory in self.root.iterdir():
            if not directory.is_dir():
                continue
            try:
                newest = max(
                    (entry.stat().st_mtime for entry in directory.iterdir()),
                    default=directory.stat().st_mtime,
                )
            except OSError:
                continue  # racing a concurrent discard; it wins
            if newest <= cutoff:
                self.discard(directory.name)
                purged += 1
        if purged:
            get_registry().increment("engine.checkpoint_purged", by=purged)
        return purged


def configure_checkpoints(directory: str | os.PathLike | None) -> None:
    """Set (or, with ``None``, disable) the process-wide checkpoint dir,
    overriding ``$REPRO_CHECKPOINT_DIR``."""
    global _CHECKPOINT_DIR
    _CHECKPOINT_DIR = None if directory is None else Path(directory)


def get_checkpoint_store() -> CheckpointStore | None:
    """The active checkpoint store, or ``None`` when checkpointing is off
    (no ``configure_checkpoints`` call and no ``$REPRO_CHECKPOINT_DIR``)."""
    if _CHECKPOINT_DIR is not _CKPT_UNSET:
        return None if _CHECKPOINT_DIR is None else CheckpointStore(_CHECKPOINT_DIR)
    env = os.environ.get("REPRO_CHECKPOINT_DIR")
    return CheckpointStore(env) if env else None
