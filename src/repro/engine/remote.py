"""Fault-tolerant remote worker fleet: lease-based distributed transport.

This is the remote end of the transport seam
(:mod:`repro.engine.transport`): a stdlib-only coordinator + worker
pair that ships the *same* sealed task units and result frames as the
subprocess transport (one frame codec, in the transport module) over
HTTP to long-lived worker processes, possibly on other hosts.  Attempts,
deadlines, re-dispatch, degradation and the duplicate-answer digest
check are :func:`repro.engine.resilience.run_units`'s, as on every
transport; this module only moves units.

The determinism contract is untouched: seeds are spawned per task
before submission and results are reduced in task order (see
:mod:`repro.engine.executor`), so re-running one unit anywhere, any
number of times, reproduces it bit-identically.

**Registration.**  A worker registers with the coordinator carrying its
environment fingerprint (:func:`repro.engine.environment
.environment_fingerprint`) and the shared-secret bearer token.  A bad
token is refused (403); a numerical stack that differs from the
coordinator's is refused (409, counted ``engine.remote_env_rejected``)
— a mismatched worker is rejected *at registration*, never trusted
with a unit whose float output could silently differ.

**Leases.**  A granted unit carries a deadline-bearing lease, renewed
by the worker's heartbeats.  A missed heartbeat or an expired lease is
a lost delivery of the units that worker held; the lifecycle
re-dispatches them, and a late answer from the straggler is checked
against its replacement's digest.

**Circuit breaker.**  Per worker: consecutive delivery failures open
the breaker (no grants) for an exponentially growing backoff; a
half-open probe unit then decides between closing it and re-opening.
Flapping nodes stop receiving work without operator action.

**Degradation is total-order.**  No healthy worker for
``$REPRO_REMOTE_CONNECT_WAIT`` seconds moves the rest of the batch to
the pool carrier — remote → pool → inline, every step bit-identical.

Fault kinds (:mod:`repro.engine.faults`) this layer enacts:
``heartbeat_loss`` (worker computes but stops heartbeating for
``sleep`` seconds), ``worker_partition`` (worker finishes, then all of
its traffic is black-holed for ``sleep`` seconds before the late
delivery), ``lease_expiry`` (the coordinator force-expires one unit's
lease despite a healthy worker).  ``worker_crash`` / ``task_timeout``
/ ``task_error`` work unchanged because units run through the same
codec and fault shim as every other transport.

Knobs (all ``REPRO_REMOTE_*``, documented in ``docs/engine.md``):
``BIND``, ``TOKEN``, ``LEASE``, ``HEARTBEAT``, ``CONNECT_WAIT``,
``BREAKER_FAILURES``, ``BREAKER_BACKOFF``, ``SPAWN``.  ``repro worker``
(or ``python -m repro.engine.remote``) runs the worker loop; ``repro
serve --transport remote`` starts the coordinator inside the job
service so N workers form a shardable fleet.
"""

from __future__ import annotations

import argparse
import atexit
import base64
import hashlib
import hmac
import itertools
import json
import os
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.engine import faults
from repro.engine.cache import unseal_payload
from repro.engine.environment import environment_fingerprint
from repro.engine.metrics import get_registry
from repro.engine.resilience import Carrier, env_number
from repro.engine.transport import (
    PoolCarrier,
    Transport,
    decode_frame,
    encode_unit,
    execute_unit,
    worker_env,
)
from repro.errors import TransportError, WorkerRejectedError

__all__ = [
    "FleetConfig",
    "FleetCoordinator",
    "RemoteWorkerTransport",
    "start_coordinator",
    "shutdown_fleet",
    "run_worker",
    "main",
]

#: Longest the parent waits between lease-expiry and fleet-health checks.
_TICK_SECONDS = 0.05


@dataclass(frozen=True)
class FleetConfig:
    """Coordinator tuning, resolved from ``REPRO_REMOTE_*`` by default.

    ``lease_seconds`` is both the per-unit lease length and the worker
    liveness window (a worker silent for that long is suspect);
    ``heartbeat_seconds`` defaults to a third of the lease so a healthy
    worker renews well inside it.
    """

    bind: str = "127.0.0.1:0"
    token: str | None = None
    lease_seconds: float = 15.0
    heartbeat_seconds: float | None = None
    connect_wait: float = 10.0
    breaker_failures: int = 3
    breaker_backoff: float = 0.5
    breaker_backoff_cap: float = 30.0
    spawn: int = 0

    @property
    def heartbeat(self) -> float:
        if self.heartbeat_seconds is not None:
            return self.heartbeat_seconds
        return max(0.05, self.lease_seconds / 3.0)

    @classmethod
    def from_env(cls, **overrides) -> FleetConfig:
        values = {
            "bind": os.environ.get("REPRO_REMOTE_BIND") or "127.0.0.1:0",
            "token": _fleet_token(),
            "lease_seconds": env_number("REPRO_REMOTE_LEASE", 15.0, float),
            "heartbeat_seconds": env_number("REPRO_REMOTE_HEARTBEAT", None, float),
            "connect_wait": env_number("REPRO_REMOTE_CONNECT_WAIT", 10.0, float),
            "breaker_failures": env_number("REPRO_REMOTE_BREAKER_FAILURES", 3, int),
            "breaker_backoff": env_number("REPRO_REMOTE_BREAKER_BACKOFF", 0.5, float),
            "spawn": env_number("REPRO_REMOTE_SPAWN", 0, int),
        }
        values.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**values)


def _fleet_token() -> str | None:
    return os.environ.get("REPRO_REMOTE_TOKEN") or os.environ.get("REPRO_SERVE_TOKEN")


def _check_token(expected: str | None, presented: str | None) -> bool:
    if not expected:
        return True
    if presented is None:
        return False
    return hmac.compare_digest(expected.encode("utf-8"), presented.encode("utf-8"))


def _bearer(headers) -> str | None:
    auth = headers.get("Authorization") or ""
    if auth.startswith("Bearer "):
        return auth[len("Bearer "):]
    return None


# ---------------------------------------------------------------------------
# Coordinator-side state
# ---------------------------------------------------------------------------


class _Breaker:
    """Per-worker circuit breaker: closed → open → half-open → closed.

    A *delivery* failure (expired lease, missed heartbeat, worker
    death, corrupt frame) counts against the worker; a task's own
    exception does not — the worker delivered a frame, the task simply
    failed.
    """

    def __init__(self, config: FleetConfig):
        self._config = config
        self.state = "closed"
        self.failures = 0
        self.open_until = 0.0
        self._backoff = config.breaker_backoff
        self.probe_inflight = False

    def allow(self, now: float) -> bool:
        if self.state == "closed":
            return True
        if self.state == "open":
            if now < self.open_until:
                return False
            self.state = "half-open"
            self.probe_inflight = False
            get_registry().increment("engine.remote_breaker_half_open")
        # half-open: exactly one probe unit in flight at a time.
        return not self.probe_inflight

    def record_failure(self, now: float) -> None:
        self.failures += 1
        self.probe_inflight = False
        if self.state == "half-open" or self.failures >= self._config.breaker_failures:
            if self.state != "open":
                get_registry().increment("engine.remote_breaker_open")
            self.state = "open"
            self.open_until = now + self._backoff
            self._backoff = min(
                self._config.breaker_backoff_cap, self._backoff * 2.0
            )

    def record_success(self) -> None:
        if self.state != "closed":
            get_registry().increment("engine.remote_breaker_closed")
        self.state = "closed"
        self.failures = 0
        self.probe_inflight = False
        self._backoff = self._config.breaker_backoff


class _Worker:
    """Coordinator-side view of one registered worker."""

    def __init__(self, worker_id: str, config: FleetConfig):
        self.worker_id = worker_id
        self.last_seen = time.monotonic()
        self.alive = True
        self.breaker = _Breaker(config)
        self.leases: set[str] = set()


@dataclass(eq=False)
class _Unit:
    """One content-addressed task unit and its lease."""

    unit_id: str
    batch: _Batch
    index: int
    payload: bytes
    lease_worker: str | None = None
    lease_deadline: float | None = None
    no_renew: bool = False  # a force-expired lease stays expired


class _Batch:
    """The units one submitting thread has handed the coordinator, and
    what happened to them since it last looked: grants ``(index,
    monotonic time)``, frames ``(index, frame, from the current lease
    holder)`` and the indexes whose delivery was lost."""

    def __init__(self, batch_id: str):
        self.batch_id = batch_id
        self.units: dict[int, _Unit] = {}
        self.started: list[tuple[int, float]] = []
        self.frames: list[tuple[int, bytes, bool]] = []
        self.lost: list[int] = []
        self.arrived = threading.Event()


class FleetCoordinator:
    """Lease-based dispatch of sealed task units to registered workers.

    One instance serves every concurrent batch of its process; the
    HTTP front end (:class:`_FleetHandler`) and the submitting threads
    (the remote carrier) both call straight into it.  All state is
    guarded by one lock.  Frames are only integrity-checked here (for
    the breaker); unpickling them and every retry decision happen in
    the submitting thread.
    """

    def __init__(self, config: FleetConfig | None = None):
        self.config = config or FleetConfig.from_env()
        self._lock = threading.RLock()
        self._workers: dict[str, _Worker] = {}
        self._units: dict[str, _Unit] = {}
        self._pending: deque[_Unit] = deque()
        self._batch_seq = itertools.count()
        self.fingerprint = environment_fingerprint()

    # -- worker-facing API (HTTP threads) -----------------------------------

    def register(self, worker_id: str, fingerprint, token: str | None):
        """Admit (or refuse) a worker; returns ``(http_status, body)``."""
        reg = get_registry()
        if not _check_token(self.config.token, token):
            reg.increment("engine.remote_auth_rejected")
            return 403, {"error": "bad or missing fleet token"}
        if not isinstance(fingerprint, dict) or fingerprint != self.fingerprint:
            reg.increment("engine.remote_env_rejected")
            return 409, {
                "error": "environment fingerprint mismatch",
                "coordinator": self.fingerprint,
                "worker": fingerprint,
            }
        with self._lock:
            known = worker_id in self._workers
            self._workers[worker_id] = _Worker(worker_id, self.config)
        if not known:
            reg.increment("engine.remote_workers_registered")
        return 200, {
            "ok": True,
            "heartbeat": self.config.heartbeat,
            "lease": self.config.lease_seconds,
        }

    def _seen(self, worker_id: str, now: float) -> _Worker | None:
        """Mark a registered worker alive as of ``now``."""
        worker = self._workers.get(worker_id)
        if worker is not None:
            worker.last_seen = now
            worker.alive = True
        return worker

    def _lose_leases(self, worker: _Worker, now: float, metric: str) -> None:
        for unit_id in list(worker.leases):
            unit = self._units.get(unit_id)
            if unit is not None and unit.lease_worker == worker.worker_id:
                self._lose(unit, now, metric)
        worker.leases.clear()

    def heartbeat(self, worker_id: str):
        """Renew the worker's liveness and every renewable lease it holds."""
        now = time.monotonic()
        with self._lock:
            worker = self._seen(worker_id, now)
            if worker is None:
                return 410, {"error": f"unknown worker {worker_id!r}"}
            for unit_id in worker.leases:
                unit = self._units.get(unit_id)
                if unit is not None and not unit.no_renew:
                    unit.lease_deadline = now + self.config.lease_seconds
            return 200, {"ok": True, "leases": len(worker.leases)}

    def grant(self, worker_id: str):
        """Lease the next pending unit to ``worker_id`` (pull model)."""
        now = time.monotonic()
        with self._lock:
            worker = self._seen(worker_id, now)
            if worker is None:
                return 410, {"error": f"unknown worker {worker_id!r}"}
            # A worker runs one unit at a time, so a lease it still holds
            # when it asks for the next is a result that never arrived.
            self._lose_leases(worker, now, "engine.remote_results_lost")
            if not worker.breaker.allow(now) or not self._pending:
                return 200, {"unit": None, "backoff": self.config.heartbeat}
            unit = self._pending.popleft()
            span = self.config.lease_seconds
            unit.lease_worker = worker_id
            unit.lease_deadline = now + span
            unit.no_renew = False
            # Chaos hook: force this lease to expire despite a healthy,
            # heartbeating worker.
            if faults.should_fire("lease_expiry", task_index=unit.index):
                unit.no_renew = True
                unit.lease_deadline = now + min(0.2, span)
            worker.leases.add(unit.unit_id)
            unit.batch.started.append((unit.index, now))
            unit.batch.arrived.set()
            if worker.breaker.state == "half-open":
                worker.breaker.probe_inflight = True
            get_registry().increment("engine.remote_units_granted")
            return 200, {
                "unit": {
                    "id": unit.unit_id,
                    "payload": base64.b64encode(unit.payload).decode("ascii"),
                    "lease": span,
                }
            }

    def deliver(self, worker_id: str, unit_id: str, frame: bytes):
        """Accept a result frame for the submitting thread to decode."""
        now = time.monotonic()
        with self._lock:
            worker = self._seen(worker_id, now)
            if worker is None:
                return 410, {"error": f"unknown worker {worker_id!r}"}
            worker.leases.discard(unit_id)
            unit = self._units.get(unit_id)
            if unit is None:
                # A straggler of an already-finished batch.
                get_registry().increment("engine.remote_orphan_results")
                return 200, {"accepted": False}
            if unseal_payload(frame) is None:
                get_registry().increment("engine.remote_corrupt_frames")
                worker.breaker.record_failure(now)
            else:
                worker.breaker.record_success()
            current = unit.lease_worker == worker_id
            if current:
                unit.lease_worker = None
                unit.lease_deadline = None
            unit.batch.frames.append((unit.index, frame, current))
            unit.batch.arrived.set()
            return 200, {"accepted": True}

    def status_snapshot(self) -> dict:
        with self._lock:
            return {
                "workers": {
                    w.worker_id: {
                        "alive": w.alive,
                        "breaker": w.breaker.state,
                        "leases": len(w.leases),
                    }
                    for w in self._workers.values()
                },
                "pending_units": len(self._pending),
                "units": len(self._units),
            }

    # -- parent-facing API (submitting threads) -----------------------------

    def open_batch(self) -> _Batch:
        return _Batch(f"b{next(self._batch_seq)}-{os.urandom(4).hex()}")

    def enqueue(self, batch: _Batch, index: int, payload: bytes) -> None:
        """Queue one sealed unit for leasing; a re-dispatch goes first."""
        with self._lock:
            unit = batch.units.get(index)
            if unit is None:
                content = hashlib.sha256(payload).hexdigest()[:16]
                unit_id = f"{batch.batch_id}-{index:06d}-{content}"
                unit = _Unit(unit_id, batch, index, payload)
                batch.units[index] = unit
                self._units[unit.unit_id] = unit
                self._pending.append(unit)
            else:
                get_registry().increment("engine.remote_redispatched")
                self._pending.appendleft(unit)

    def collect(self, batch: _Batch) -> tuple[list, list, list[int]]:
        """Take the grants, frames and lost deliveries recorded so far."""
        with self._lock:
            batch.arrived.clear()
            news = batch.started, batch.frames, batch.lost
            batch.started, batch.frames, batch.lost = [], [], []
            return news

    def expire(self, batch: _Batch, indices) -> None:
        """Abandon units: release their leases, withdraw them from the queue."""
        with self._lock:
            for index in indices:
                unit = batch.units[index]
                self._release(unit)
                if unit in self._pending:
                    self._pending.remove(unit)
            # What already came back for them is a straggler's now.
            batch.started = [s for s in batch.started if s[0] not in indices]
            batch.frames = [(i, f, c and i not in indices) for i, f, c in batch.frames]
            batch.lost = [i for i in batch.lost if i not in indices]

    def finish_batch(self, batch: _Batch) -> None:
        """Drop a batch's units from every table."""
        with self._lock:
            for unit in batch.units.values():
                self._release(unit)
                self._units.pop(unit.unit_id, None)
            self._pending = deque(u for u in self._pending if u.batch is not batch)

    def _release(self, unit: _Unit) -> _Worker | None:
        worker = self._workers.get(unit.lease_worker or "")
        if worker is not None:
            worker.leases.discard(unit.unit_id)
        unit.lease_worker = None
        unit.lease_deadline = None
        return worker

    def _lose(self, unit: _Unit, now: float, metric: str) -> None:
        """A lease ran out: the delivery is lost and the holder suspect."""
        worker = self._release(unit)
        if worker is not None:
            worker.breaker.record_failure(now)
        get_registry().increment(metric)
        unit.batch.lost.append(unit.index)
        unit.batch.arrived.set()

    def tick(self) -> None:
        """Advance failure detection: lost workers, expired leases."""
        now = time.monotonic()
        with self._lock:
            for worker in self._workers.values():
                if worker.alive and now - worker.last_seen > self.config.lease_seconds:
                    worker.alive = False
                    get_registry().increment("engine.remote_workers_lost")
                    self._lose_leases(worker, now, "engine.remote_heartbeat_missed")
            for unit in list(self._units.values()):
                if unit.lease_deadline is not None and now >= unit.lease_deadline:
                    self._lose(unit, now, "engine.remote_lease_expired")

    def healthy_count(self) -> int:
        now = time.monotonic()
        with self._lock:
            return sum(
                1
                for w in self._workers.values()
                if w.alive and w.breaker.allow(now)
            )


# ---------------------------------------------------------------------------
# Coordinator HTTP front end
# ---------------------------------------------------------------------------


class _FleetHandler(BaseHTTPRequestHandler):
    """JSON shim over :class:`FleetCoordinator` — no logic of its own."""

    server_version = "repro-fleet/1"
    protocol_version = "HTTP/1.1"

    @property
    def coordinator(self) -> FleetCoordinator:
        return self.server.coordinator  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if os.environ.get("REPRO_SERVE_LOG"):
            sys.stderr.write(
                "%s - %s\n" % (self.address_string(), format % args)
            )

    def _reply(self, status: int, body: dict) -> None:
        blob = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def _read_body(self) -> dict | None:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        try:
            body = json.loads(raw) if raw else None
        except ValueError:
            return None
        return body if isinstance(body, dict) else None

    def _authorized(self) -> bool:
        return _check_token(self.coordinator.config.token, _bearer(self.headers))

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        body = self._read_body()
        if body is None:
            self._reply(400, {"error": "request body must be a JSON object"})
            return
        path = self.path.rstrip("/")
        if path == "/v1/fleet/register":
            # Registration carries the token itself through the header;
            # _check_token runs inside register() so the refusal is
            # counted as an auth rejection, not a transport 401.
            status, answer = self.coordinator.register(
                str(body.get("worker", "")),
                body.get("fingerprint"),
                _bearer(self.headers),
            )
            self._reply(status, answer)
            return
        if not self._authorized():
            self._reply(401, {"error": "unauthorized"})
            return
        worker_id = str(body.get("worker", ""))
        if path == "/v1/fleet/lease":
            status, answer = self.coordinator.grant(worker_id)
        elif path == "/v1/fleet/heartbeat":
            status, answer = self.coordinator.heartbeat(worker_id)
        elif path == "/v1/fleet/result":
            try:
                frame = base64.b64decode(body.get("frame", ""))
            except (ValueError, TypeError):
                self._reply(400, {"error": "frame must be base64"})
                return
            status, answer = self.coordinator.deliver(
                worker_id, str(body.get("unit", "")), frame
            )
        else:
            status, answer = 404, {"error": f"no route POST {self.path}"}
        self._reply(status, answer)

    def do_GET(self) -> None:  # noqa: N802
        if self.path.rstrip("/") == "/v1/fleet/status":
            if not self._authorized():
                self._reply(401, {"error": "unauthorized"})
                return
            self._reply(200, self.coordinator.status_snapshot())
            return
        self._reply(404, {"error": f"no route GET {self.path}"})


# ---------------------------------------------------------------------------
# Process-wide fleet lifecycle
# ---------------------------------------------------------------------------

_FLEET_LOCK = threading.Lock()
_COORDINATOR: FleetCoordinator | None = None
_HTTPD: ThreadingHTTPServer | None = None
_URL: str | None = None
_SPAWNED: list[subprocess.Popen] = []
_ATEXIT_INSTALLED = False


def start_coordinator(
    bind: str | None = None,
    token: str | None = None,
    config: FleetConfig | None = None,
) -> tuple[FleetCoordinator, str]:
    """Start (or return) the process-wide coordinator and its URL.

    Idempotent: a second call returns the running instance.  The bind
    address defaults to ``$REPRO_REMOTE_BIND`` (``127.0.0.1:0`` — an
    ephemeral loopback port).
    """
    global _COORDINATOR, _HTTPD, _URL, _ATEXIT_INSTALLED
    with _FLEET_LOCK:
        if _COORDINATOR is not None:
            return _COORDINATOR, _URL  # type: ignore[return-value]
        cfg = config or FleetConfig.from_env(bind=bind, token=token)
        host, _, port_text = cfg.bind.partition(":")
        try:
            port = int(port_text or 0)
        except ValueError:
            raise TransportError(
                f"malformed fleet bind address {cfg.bind!r}; expected host:port"
            ) from None
        coordinator = FleetCoordinator(cfg)
        httpd = ThreadingHTTPServer((host or "127.0.0.1", port), _FleetHandler)
        httpd.daemon_threads = True
        httpd.coordinator = coordinator  # type: ignore[attr-defined]
        thread = threading.Thread(
            target=httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-fleet-coordinator",
            daemon=True,
        )
        thread.start()
        _COORDINATOR = coordinator
        _HTTPD = httpd
        _URL = f"http://{host or '127.0.0.1'}:{httpd.server_address[1]}"
        if not _ATEXIT_INSTALLED:
            atexit.register(shutdown_fleet)
            _ATEXIT_INSTALLED = True
        return coordinator, _URL


def shutdown_fleet() -> None:
    """Stop the coordinator and reap any auto-spawned workers."""
    global _COORDINATOR, _HTTPD, _URL
    with _FLEET_LOCK:
        httpd, _COORDINATOR, _HTTPD, _URL = _HTTPD, None, None, None
        spawned, _SPAWNED[:] = list(_SPAWNED), []
    if httpd is not None:
        httpd.shutdown()
        httpd.server_close()
    for proc in spawned:
        proc.terminate()  # a no-op on a worker that already exited
    for proc in spawned:
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _maintain_spawned(url: str, config: FleetConfig) -> None:
    """Keep ``config.spawn`` local worker processes attached to ``url``."""
    with _FLEET_LOCK:
        _SPAWNED[:] = [p for p in _SPAWNED if p.poll() is None]
        while len(_SPAWNED) < config.spawn:
            _SPAWNED.append(
                subprocess.Popen(
                    [
                        sys.executable, "-m", "repro.engine.remote",
                        "--coordinator", url,
                        "--poll", f"{max(0.02, config.heartbeat / 2):g}",
                    ],
                    env=worker_env(),
                    stdout=subprocess.DEVNULL,
                )
            )
            get_registry().increment("engine.remote_workers_spawned")


# ---------------------------------------------------------------------------
# The transport
# ---------------------------------------------------------------------------


class _RemoteCarrier(Carrier):
    """Units leased to the fleet through the process-wide coordinator.

    A unit starts (and its deadline runs) when a worker is granted its
    lease; abandoning a unit expires the lease.  With no
    healthy worker for ``connect_wait`` seconds the batch moves to a
    :class:`~repro.engine.transport.PoolCarrier`
    (``engine.remote_degraded``), and the units in flight are
    re-dispatched there.
    """

    starts_on_dispatch = False

    def __init__(self, workers, coordinator=None):
        super().__init__(workers)
        if coordinator is None:
            coordinator, url = start_coordinator()
            _maintain_spawned(url, coordinator.config)
        self.coordinator = coordinator
        self.batch = coordinator.open_batch()
        self.fallback: Carrier | None = None
        self.last_healthy = time.monotonic()

    def capacity(self):
        # Deadlines run from the grant, so queued units cost nothing:
        # the whole batch waits at the coordinator for idle workers.
        return self.workers if self.fallback is not None else sys.maxsize

    def dispatch(self, index, fn, task):
        if self.fallback is not None:
            return self.fallback.dispatch(index, fn, task)
        payload = encode_unit(fn, index, task)
        if payload is not None:
            self.coordinator.enqueue(self.batch, index, payload)
        return payload is not None

    def wait(self, timeout):
        if self.fallback is not None:
            return self.fallback.wait(timeout)
        end = None if timeout is None else time.monotonic() + timeout
        while True:
            started, frames, lost = self.coordinator.collect(self.batch)
            outcomes = [(index, "started", at, None) for index, at in started]
            for index, frame, current in frames:
                kind, value, digest = decode_frame(frame, index)
                # A straggler's failure says nothing about its replacement;
                # its answer makes a replacement still queued or leased moot.
                if kind == "ok" and not current:
                    self.coordinator.expire(self.batch, [index])
                if current or kind == "ok":
                    outcomes.append((index, kind, value, digest))
            outcomes += [
                (i, "lost", TransportError(f"task {i} lost its lease"), None)
                for i in lost
            ]
            now = time.monotonic()
            # Return at ``end`` before ticking: a unit's deadline and its
            # lease both run from the grant, so an overrun is reported as
            # a timeout whenever the deadline is the shorter.
            if outcomes or (end is not None and now >= end):
                return outcomes
            if self.coordinator.healthy_count():
                self.last_healthy = now
            elif now - self.last_healthy >= self.coordinator.config.connect_wait:
                get_registry().increment("engine.remote_degraded")
                self.coordinator.finish_batch(self.batch)
                self.fallback = PoolCarrier(self.workers)
                return [(i, "requeue", None, None) for i in self.batch.units]
            self.coordinator.tick()
            wake = _TICK_SECONDS if end is None else min(_TICK_SECONDS, end - now)
            self.batch.arrived.wait(wake)

    def abandon(self, indices):
        if self.fallback is not None:
            self.fallback.abandon(indices)
        else:
            self.coordinator.expire(self.batch, indices)

    def close(self):
        if self.fallback is not None:
            self.fallback.close()
        self.coordinator.finish_batch(self.batch)


class RemoteWorkerTransport(Transport):
    """Ship task units to the registered worker fleet under leases.

    Registered lazily as ``remote`` (see
    :func:`repro.engine.transport.get_transport`); selected like any
    other transport — ``run_tasks(transport="remote")``,
    ``parallel(transport="remote")`` or ``$REPRO_TRANSPORT=remote`` —
    so manifests record it automatically.
    """

    name = "remote"
    isolates_tasks = True
    carrier = _RemoteCarrier


# ---------------------------------------------------------------------------
# The worker process
# ---------------------------------------------------------------------------


class _CoordinatorClient:
    """Worker-side HTTP plumbing (urllib, token header, JSON bodies)."""

    def __init__(self, base_url: str, token: str | None, timeout: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.token = token
        self.timeout = timeout

    def post(self, path: str, body: dict) -> tuple[int, dict]:
        data = json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        request = urllib.request.Request(
            f"{self.base_url}{path}", data=data, method="POST", headers=headers
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.status, json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                payload = json.loads(exc.read().decode("utf-8"))
            except ValueError:
                payload = {}
            return exc.code, payload


class _WorkerState:
    """Mutable worker-side state shared with the heartbeat thread."""

    def __init__(self):
        self.suppress_until = 0.0  # monotonic; heartbeat_loss / partition
        self.stop = threading.Event()

    def suppressed(self) -> bool:
        return time.monotonic() < self.suppress_until

    def go_dark(self, seconds: float) -> None:
        """Send nothing for ``seconds`` — no beats, no leases, no results."""
        self.suppress_until = max(self.suppress_until, time.monotonic() + seconds)
        time.sleep(seconds)


def _heartbeat_loop(
    client: _CoordinatorClient, worker_id: str, interval: float, state: _WorkerState
) -> None:
    while not state.stop.wait(interval):
        if state.suppressed():
            continue
        try:
            client.post("/v1/fleet/heartbeat", {"worker": worker_id})
        except (urllib.error.URLError, ConnectionError, OSError):
            pass  # the lease loop owns giving up; a beat is best-effort


def run_worker(
    coordinator: str,
    token: str | None = None,
    poll: float = 0.25,
    grace: float = 30.0,
    max_units: int | None = None,
) -> int:
    """The worker loop: register, lease, execute, deliver, heartbeat.

    Exits 0 after a clean stop (``max_units`` reached), 1 when the
    coordinator stays unreachable for ``grace`` seconds, and 2 when
    registration is refused (bad token or environment mismatch).
    """
    client = _CoordinatorClient(coordinator, token or _fleet_token())
    worker_id = f"{socket.gethostname()}-{os.getpid()}-{os.urandom(3).hex()}"
    state = _WorkerState()

    def register() -> float | None:
        """Attempt registration; heartbeat interval on success."""
        status, answer = client.post(
            "/v1/fleet/register",
            {"worker": worker_id, "fingerprint": environment_fingerprint()},
        )
        if status == 200:
            return float(answer.get("heartbeat", 5.0))
        raise WorkerRejectedError(
            f"coordinator refused registration ({status}): "
            f"{answer.get('error', 'unknown reason')}"
        )

    deadline = time.monotonic() + grace
    interval = None
    while interval is None:
        try:
            interval = register()
        except (urllib.error.URLError, ConnectionError, OSError):
            if time.monotonic() >= deadline:
                print(
                    f"worker {worker_id}: coordinator {coordinator} unreachable "
                    f"for {grace:g}s; giving up",
                    file=sys.stderr,
                )
                return 1
            time.sleep(min(0.2, poll))
        except WorkerRejectedError as exc:
            print(f"worker {worker_id}: {exc}", file=sys.stderr)
            return 2

    beat = threading.Thread(
        target=_heartbeat_loop,
        args=(client, worker_id, interval, state),
        name="repro-worker-heartbeat",
        daemon=True,
    )
    beat.start()
    print(f"worker {worker_id}: registered with {coordinator}", flush=True)

    def on_start(index: int) -> None:
        # Chaos hook: the worker keeps computing this unit but its
        # heartbeats go dark for ``sleep`` seconds — a stalled beat
        # thread plus an equally long compute, so the coordinator must
        # expire the lease while the answer is still coming.
        spec = faults.should_fire("heartbeat_loss", task_index=index)
        if spec is not None:
            state.go_dark(spec.sleep)

    executed = 0
    last_contact = time.monotonic()
    try:
        while True:
            if state.suppressed():
                time.sleep(poll)
                continue
            try:
                status, answer = client.post("/v1/fleet/lease", {"worker": worker_id})
            except (urllib.error.URLError, ConnectionError, OSError):
                if time.monotonic() - last_contact >= grace:
                    print(
                        f"worker {worker_id}: lost the coordinator for "
                        f"{grace:g}s; exiting",
                        file=sys.stderr,
                    )
                    return 1
                time.sleep(poll)
                continue
            last_contact = time.monotonic()
            if status == 410:
                # The coordinator restarted (or evicted us): re-register.
                try:
                    register()
                except WorkerRejectedError as exc:
                    print(f"worker {worker_id}: {exc}", file=sys.stderr)
                    return 2
                except (urllib.error.URLError, ConnectionError, OSError):
                    pass
                continue
            unit = (answer or {}).get("unit")
            if not unit:
                time.sleep(poll)
                continue
            frame, index = execute_unit(
                base64.b64decode(unit.get("payload", "")), on_start
            )
            # Chaos hook: deliver late, fully partitioned in between —
            # no heartbeats, no result — so the lease expires and the
            # re-dispatched replacement races this straggler.
            spec = faults.should_fire("worker_partition", task_index=index)
            if spec is not None:
                state.go_dark(spec.sleep)
            try:
                client.post("/v1/fleet/result", {
                    "worker": worker_id,
                    "unit": unit.get("id"),
                    "frame": base64.b64encode(frame).decode("ascii"),
                })
            except (urllib.error.URLError, ConnectionError, OSError):
                pass  # the next lease request reports this unit lost
            executed += 1
            if max_units is not None and executed >= max_units:
                return 0
    finally:
        state.stop.set()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro worker",
        description="join a repro fleet: pull sealed task units from a "
        "coordinator under lease-based assignment",
    )
    parser.add_argument(
        "--coordinator", required=True,
        help="coordinator base URL (printed by 'repro serve --transport remote')",
    )
    parser.add_argument(
        "--token", default=None,
        help="fleet bearer token (default $REPRO_REMOTE_TOKEN, "
        "else $REPRO_SERVE_TOKEN)",
    )
    parser.add_argument(
        "--poll", type=float, default=0.25,
        help="seconds between lease polls when idle",
    )
    parser.add_argument(
        "--grace", type=float, default=30.0,
        help="seconds of coordinator unreachability before exiting",
    )
    parser.add_argument(
        "--max-units", type=int, default=None,
        help="exit after executing this many units (default: run forever)",
    )
    args = parser.parse_args(argv)
    return run_worker(
        args.coordinator,
        token=args.token,
        poll=args.poll,
        grace=args.grace,
        max_units=args.max_units,
    )


if __name__ == "__main__":
    raise SystemExit(main())
