"""Fixtures shared by the engine suites: the local worker fleet and the
three carriers of the task-unit lifecycle."""

from __future__ import annotations

import pytest

import repro.engine.remote as remote


@pytest.fixture
def fleet(monkeypatch):
    """Configure fast fleet knobs; the coordinator starts lazily on the
    first remote submit and is torn down (with its spawned workers)
    after the test."""

    def _configure(spawn=2, lease=1.5, connect_wait=15.0, **env):
        monkeypatch.setenv("REPRO_REMOTE_SPAWN", str(spawn))
        monkeypatch.setenv("REPRO_REMOTE_LEASE", str(lease))
        monkeypatch.setenv("REPRO_REMOTE_CONNECT_WAIT", str(connect_wait))
        for key, value in env.items():
            monkeypatch.setenv(key, str(value))

    yield _configure
    remote.shutdown_fleet()


@pytest.fixture(params=["pool", "subprocess", "remote"])
def carrier(request, fleet):
    """The name of each isolating transport; ``remote`` with a
    two-worker local fleet."""
    if request.param == "remote":
        fleet(spawn=2)
    return request.param
