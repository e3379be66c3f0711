"""Execution backends: registry, pool plumbing, ordered map semantics."""

import os

import pytest

from repro.exec.backend import (
    BACKENDS,
    ProcessBackend,
    SerialBackend,
    build_backend,
    cpu_count,
    resolve_jobs,
)


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom {x}")


def _boom_on_zero(item):
    import time

    if item == 0:
        raise ValueError("boom")
    delay, value = item
    time.sleep(delay)
    return value


def _slow_then_value(item):
    import time

    delay, value = item
    time.sleep(delay)
    return value


class TestRegistry:
    def test_builtins_registered(self):
        assert "serial" in BACKENDS
        assert "process" in BACKENDS
        assert BACKENDS.canonical("mp") == "process"
        assert BACKENDS.canonical("inline") == "serial"

    def test_build_backend(self):
        assert isinstance(build_backend("serial"), SerialBackend)
        backend = build_backend("process", jobs=1)
        assert isinstance(backend, ProcessBackend)
        backend.close()

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError):
            build_backend("gpu-farm")


class TestJobs:
    def test_resolve_jobs_zero_means_all_cores(self):
        assert resolve_jobs(0) == cpu_count()
        assert resolve_jobs(3) == 3

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)

    def test_bad_start_method_rejected(self):
        with pytest.raises(ValueError):
            ProcessBackend(jobs=1, start_method="teleport")


class TestSerialBackend:
    def test_map_in_order(self):
        assert SerialBackend().map(_square, [3, 1, 2]) == [9, 1, 4]


class TestProcessBackend:
    def test_map_returns_submission_order(self):
        with ProcessBackend(jobs=2) as backend:
            assert backend.map(_square, list(range(7))) == [
                x * x for x in range(7)
            ]

    def test_map_order_independent_of_completion_order(self):
        # The slowest task is submitted first; results still come back
        # in submission order.
        items = [(0.05, "slow"), (0.0, "a"), (0.0, "b"), (0.0, "c")]
        with ProcessBackend(jobs=2) as backend:
            assert backend.map(_slow_then_value, items) == ["slow", "a", "b", "c"]

    def test_worker_error_propagates(self):
        with ProcessBackend(jobs=2) as backend:
            with pytest.raises(RuntimeError, match="boom"):
                backend.map(_boom, [1])
            # The pool survives a task failure.
            assert backend.map(_square, [5]) == [25]

    def test_error_drains_inflight_replies_before_raising(self):
        # A failing task must not abandon other workers' queued replies:
        # the request/reply protocol has no sequence numbers, so a stale
        # reply would silently corrupt the *next* map's results.
        with ProcessBackend(jobs=2) as backend:
            with pytest.raises(RuntimeError, match="boom"):
                backend.map(_boom_on_zero, [0, (0.02, 7), 0, 0])
            # Every worker is back in sync: fresh results, right order.
            assert backend.map(_square, [2, 3, 4]) == [4, 9, 16]

    def test_workers_spawn_lazily_and_cap_at_jobs(self):
        with ProcessBackend(jobs=4) as backend:
            assert backend._workers == []
            backend.map(_square, [1, 2])
            assert 1 <= len(backend._workers) <= 2

    def test_close_is_idempotent(self):
        backend = ProcessBackend(jobs=1)
        backend.map(_square, [2])
        backend.close()
        backend.close()

    def test_map_empty(self):
        with ProcessBackend(jobs=2) as backend:
            assert backend.map(_square, []) == []

    def test_spawn_start_method_works(self):
        # The import-clean path used on platforms without fork.
        with ProcessBackend(jobs=1, start_method="spawn") as backend:
            assert backend.map(_square, [6]) == [36]


def test_cpu_count_positive():
    assert cpu_count() >= 1
    assert cpu_count() <= (os.cpu_count() or 1)
