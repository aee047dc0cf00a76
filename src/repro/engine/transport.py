"""Transport abstraction: *where* chunked task units run.

The determinism contract lives one layer up — chunk boundaries and
per-task seeds are a function of the task list alone (see
:mod:`repro.engine.executor`) — so the engine is free to ship the same
task units anywhere.  A :class:`Transport` is exactly that freedom made
explicit: :meth:`~Transport.run` takes an ordered batch and returns
results in task order, and *bit-identity is transport-invariant*
because nothing about seeding, chunking or reduction order is the
transport's business.

Four transports ship:

``inline``
    Sequential, in the calling process.  No isolation, no fault
    injection, no pickling requirement — the reference execution.
``pool``
    A process pool per batch (:class:`PoolCarrier`).
``subprocess``
    A *fresh* worker process per task unit (:mod:`repro.engine.worker`),
    the unit an integrity-sealed pickle over a pipe (the frame codec
    below, shared with the fleet) — the only carrier
    that gives every unit a cold process and can kill a hung unit
    without touching the others.
``remote``
    Task units leased over HTTP to a registered worker fleet
    (:mod:`repro.engine.remote`).  Registered lazily on first request
    to avoid a circular import.

Every isolating transport runs its units through the one lifecycle in
:func:`repro.engine.resilience.run_units` (attempts, deadlines,
backoff, degradation, cancellation); its carrier only moves units.

Selection: ``run_tasks(transport=...)`` > ``parallel(transport=...)`` >
``$REPRO_TRANSPORT`` > automatic (inline when effectively sequential,
pool otherwise).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import queue
import subprocess
import sys
import threading
import traceback
from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from repro.engine.cache import seal_payload, unseal_payload
from repro.engine.metrics import get_registry
from repro.engine.resilience import Carrier, ResiliencePolicy, _invoke, run_units
from repro.errors import TransportError

__all__ = [
    "Transport",
    "InlineTransport",
    "ProcessPoolTransport",
    "SubprocessWorkerTransport",
    "PoolCarrier",
    "encode_unit",
    "execute_unit",
    "decode_frame",
    "worker_env",
    "available_transports",
    "get_transport",
    "resolve_transport",
]


# ---------------------------------------------------------------------------
# The task-unit frame codec
# ---------------------------------------------------------------------------
#
# Every carrier that ships a unit out of the parent — a fresh
# ``python -m repro.engine.worker`` child per unit, or a remote fleet
# worker — speaks the same two messages.  A *unit* is
# ``seal_payload(pickle((fn, index, task)))``, the disk cache's integrity
# trailer, so a truncated pipe or body is detected, never deserialized.
# A *frame* is a sealed pickle of ``("ok", value)``, ``("err", exc)``,
# ``("err_str", traceback)`` (the exception does not pickle),
# ``("unpicklable", message)`` (the result does not pickle, or the unit
# names something the worker cannot import) or ``("lost", message)``
# (the unit failed its integrity check).  The task runs through the
# fault-injection shim (``resilience._invoke``) as on the pool.


def _sealed(message) -> bytes:
    return seal_payload(pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))


def encode_unit(fn: Callable, index: int, task) -> bytes | None:
    """The sealed unit, or ``None`` when ``fn`` or ``task`` does not pickle."""
    try:
        return _sealed((fn, index, task))
    except Exception:
        return None


def execute_unit(
    blob: bytes, on_start: Callable[[int], None] | None = None
) -> tuple[bytes, int | None]:
    """Run one sealed unit; returns ``(sealed frame, task index)``.

    ``on_start(index)`` runs just before the task (the fleet worker's
    chaos hook).  The index is ``None`` when the unit never opened.
    """
    payload = unseal_payload(blob)
    if payload is None:
        return _sealed(("lost", "task unit failed its integrity check")), None
    try:
        fn, index, task = pickle.loads(payload)
    except Exception as exc:  # the unit names something we cannot import
        return _sealed(("unpicklable", f"worker cannot deserialize unit: "
                                       f"{type(exc).__name__}: {exc}")), None
    if on_start is not None:
        on_start(index)
    try:
        value = _invoke(fn, index, task)
    except BaseException as exc:  # noqa: BLE001 - errors ride the channel
        try:
            return _sealed(("err", exc)), index
        except Exception:
            trace = traceback.format_exception(type(exc), exc, exc.__traceback__)
            return _sealed(("err_str", "".join(trace))), index
    try:
        return _sealed(("ok", value)), index
    except Exception as exc:
        return _sealed(("unpicklable", f"{type(exc).__name__}: {exc}")), index


def decode_frame(frame: bytes, index: int) -> tuple[str, object, str | None]:
    """``(kind, value, digest)`` of one frame for task ``index``.

    ``digest`` is the SHA-256 of an ``ok`` frame (``None`` otherwise);
    a frame that fails its integrity check or does not unpickle is a
    ``lost`` delivery.
    """
    payload = unseal_payload(frame)
    try:
        status, value = pickle.loads(payload)
    except Exception:
        return "lost", TransportError(
            f"result frame for task {index} failed its integrity check"
        ), None
    if status == "ok":
        return "ok", value, hashlib.sha256(payload).hexdigest()
    if status in ("err_str", "lost"):
        return ("err" if status == "err_str" else "lost"), TransportError(
            f"task {index}: {value}"
        ), None
    return status, value, None


def worker_env() -> dict[str, str]:
    """The parent's environment, with its ``sys.path`` as ``PYTHONPATH``
    so a cold child imports ``repro`` whatever the install layout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    return env



class Transport:
    """A named way to run a batch of independent task units.

    ``isolates_tasks`` means units run outside the calling process (a
    crash cannot take the parent down; payloads must pickle).
    """

    name: str = "abstract"
    isolates_tasks: bool = False
    carrier: type[Carrier]

    def run(
        self,
        fn: Callable,
        tasks: Sequence,
        *,
        workers: int = 1,
        policy: ResiliencePolicy | None = None,
        on_result: Callable[[int, object], None] | None = None,
    ) -> list:
        """Run ``fn`` over ``tasks``; results in task order."""
        return run_units(
            fn, tasks, workers=workers, policy=policy, on_result=on_result,
            carrier=self.carrier,
        )


class InlineTransport(Transport):
    """Sequential execution in the calling process — the reference path.

    Exceptions propagate immediately; there are no retries because
    nothing here can fail transiently (no pool, no pipe, no pickling).
    """

    name = "inline"

    def run(self, fn, tasks, *, workers=1, policy=None, on_result=None):
        results = []
        for index, task in enumerate(tasks):
            results.append(fn(task))
            if on_result is not None:
                on_result(index, results[-1])
        return results


def _is_pickle_error(exc: BaseException) -> bool:
    if isinstance(exc, pickle.PicklingError):
        return True
    return isinstance(exc, (TypeError, AttributeError)) and "pickle" in str(exc).lower()


class PoolCarrier(Carrier):
    """Units as futures of one ``ProcessPoolExecutor`` per batch.

    A running future cannot be cancelled, so abandoning a unit
    terminates and reaps every worker of the pool; the other units in
    flight are re-dispatched free of charge on a fresh pool.  A dead
    worker breaks the whole pool the same way, but every unit in flight
    then counts the lost delivery, and after ``max_lost_rounds`` broken
    pools the rest of the batch runs in the parent.  Waiting is
    event-driven (``wait(FIRST_COMPLETED)``).
    """

    max_lost_rounds = 3

    def __init__(self, workers):
        super().__init__(workers)
        self.pool: ProcessPoolExecutor | None = None
        self.futures: dict = {}  # future -> index
        self.settled: list[tuple] = []  # outcomes known without waiting
        self.discarded = False

    def dispatch(self, index, fn, task):
        if self.pool is None:
            if self.discarded:
                get_registry().increment("engine.pool_rebuilds")
            self.pool = ProcessPoolExecutor(max_workers=self.workers)
        try:
            self.futures[self.pool.submit(_invoke, fn, index, task)] = index
        except (BrokenProcessPool, RuntimeError) as exc:
            error = TransportError(f"process pool is broken: {exc}")
            self.settled.append((index, "lost", error, None))
            self._discard("lost", error)
        return True

    def wait(self, timeout):
        if not self.settled:
            wait(self.futures, timeout=timeout, return_when=FIRST_COMPLETED)
        broken = None
        for future in [f for f in self.futures if f.done()]:
            index = self.futures.pop(future)
            try:
                self.settled.append((index, "ok", future.result(), None))
            except BrokenProcessPool as exc:
                broken = TransportError(f"a pool worker died: {exc}")
                self.settled.append((index, "lost", broken, None))
            except Exception as exc:
                kind = "unpicklable" if _is_pickle_error(exc) else "err"
                self.settled.append((index, kind, exc, None))
        if broken is not None:
            self._discard("lost", broken)
        outcomes, self.settled = self.settled, []
        return outcomes

    def abandon(self, indices):
        for future in [f for f, i in self.futures.items() if i in indices]:
            del self.futures[future]
        self._discard("requeue")

    def close(self):
        if self.futures:
            self._discard(None)
        elif self.pool is not None:
            self.pool.shutdown(wait=False)

    def _discard(self, kind: str | None, error=None) -> None:
        """Terminate and reap the pool's workers; settle the units in
        flight as ``kind`` (``None``: the batch is over)."""
        pool, self.pool = self.pool, None
        if pool is not None:
            # shutdown() drops the executor's process table: read it first.
            procs = list((pool._processes or {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            alive = [proc for proc in procs if proc.is_alive()]
            for proc in alive:
                proc.terminate()
            for proc in procs:
                proc.join(5.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join()
            get_registry().increment("engine.worker_reaped", by=len(alive))
            self.discarded = True
        if kind is not None:
            self.settled += [(i, kind, error, None) for i in self.futures.values()]
        self.futures.clear()


class _SubprocessCarrier(Carrier):
    """One ``python -m repro.engine.worker`` child per unit.

    A parent thread per child pumps the sealed unit in and the frame
    out.  Abandoning a unit kills and reaps its child only
    (``engine.worker_reaped``).  A unit whose child keeps dying raises
    instead of degrading: each unit has a process of its own here, so
    the unit itself is the likely killer, and it would take the parent
    down too.
    """

    exhausted_delivery = "raise"

    def __init__(self, workers):
        super().__init__(workers)
        self.running: dict[int, subprocess.Popen] = {}
        self.done: queue.Queue = queue.Queue()

    def dispatch(self, index, fn, task):
        unit = encode_unit(fn, index, task)
        if unit is None:
            return False
        get_registry().increment("engine.subprocess_tasks")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.engine.worker"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=worker_env(),
        )
        self.running[index] = proc
        threading.Thread(
            target=self._pump, args=(index, proc, unit), daemon=True
        ).start()
        return True

    def _pump(self, index, proc, unit) -> None:
        try:
            out = proc.communicate(unit)[0]
        except (OSError, ValueError):
            out = b""
        self.done.put((index, proc, out))

    def wait(self, timeout):
        outcomes = []
        try:
            item = self.done.get(timeout=timeout)
            while True:
                index, proc, out = item
                if self.running.get(index) is proc:  # else: abandoned
                    del self.running[index]
                    outcomes.append((index, *self._outcome(index, proc, out)))
                item = self.done.get_nowait()
        except queue.Empty:
            return outcomes

    @staticmethod
    def _outcome(index, proc, out):
        if proc.returncode != 0:
            get_registry().increment("engine.worker_crashes")
            return "lost", TransportError(
                f"worker for task {index} exited with code {proc.returncode} "
                "before producing a result frame"
            ), None
        return decode_frame(out, index)

    def abandon(self, indices):
        reg = get_registry()
        for index in indices:
            proc = self.running.pop(index)
            if proc.poll() is None:
                proc.kill()
                proc.wait()
                reg.increment("engine.worker_reaped")

    def close(self):
        self.abandon(list(self.running))


class ProcessPoolTransport(Transport):
    name = "pool"
    isolates_tasks = True
    carrier = PoolCarrier


class SubprocessWorkerTransport(Transport):
    name = "subprocess"
    isolates_tasks = True
    carrier = _SubprocessCarrier


_TRANSPORTS: dict[str, Transport] = {
    t.name: t for t in (InlineTransport(), ProcessPoolTransport(),
                        SubprocessWorkerTransport())
}

#: Transports registered on first use instead of at import time.  The
#: remote fleet transport lives in :mod:`repro.engine.remote`, which
#: imports this module — eager construction here would be circular.
_LAZY_TRANSPORTS = ("remote",)


def available_transports() -> tuple[str, ...]:
    return tuple(sorted(set(_TRANSPORTS) | set(_LAZY_TRANSPORTS)))


def get_transport(name: str) -> Transport:
    """Resolve a transport by name; raises :class:`TransportError`."""
    transport = _TRANSPORTS.get(name)
    if transport is None and name in _LAZY_TRANSPORTS:
        from repro.engine.remote import RemoteWorkerTransport

        transport = _TRANSPORTS.setdefault(name, RemoteWorkerTransport())
    if transport is None:
        raise TransportError(
            f"unknown transport {name!r}; available: {list(available_transports())}"
        )
    return transport


def resolve_transport(name: str | None, workers: int) -> Transport:
    """The effective transport: explicit name, else ``$REPRO_TRANSPORT``,
    else automatic (inline when sequential, pool otherwise)."""
    if name is None:
        name = os.environ.get("REPRO_TRANSPORT") or None
    if name is not None:
        return get_transport(name)
    return _TRANSPORTS["inline" if workers <= 1 else "pool"]
