"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
import tracemalloc

import numpy as np
import pytest

from repro.cluster.cloud_presets import make_cluster, paper_testbed
from repro.models.nn.mlp import MLPClassifier
from repro.utils.seeding import new_rng


@pytest.fixture
def rng():
    """Fresh deterministic generator per test."""
    return new_rng(1234)


@pytest.fixture(params=[np.float32, np.float64], ids=["float32", "float64"])
def mlp_dtype(request, monkeypatch):
    """Run the test once per dtype the MLP family may train in: its own
    float32 and, through ``MLPClassifier.dtype``, the float64 every
    other model trains in.  Returns the dtype in force."""
    monkeypatch.setattr(MLPClassifier, "dtype", request.param)
    return np.dtype(request.param)


@pytest.fixture
def small_cluster():
    """2 nodes x 4 GPUs — the smallest cluster where the hierarchy matters."""
    return make_cluster(2, "tencent", gpus_per_node=4)


@pytest.fixture
def tiny_cluster():
    """2 nodes x 2 GPUs — for expensive functional tests."""
    return make_cluster(2, "tencent", gpus_per_node=2)


@pytest.fixture(scope="session")
def testbed():
    """The paper's 16x8 testbed (session-scoped; it is immutable)."""
    return paper_testbed()


def assert_ledger_balances(report) -> None:
    """An :class:`~repro.elastic.elastic_trainer.ElasticRunReport` accounts
    for every iteration it attempted: each was kept or rolled back, and
    each kept one left exactly one loss."""
    assert report.wall_iterations == report.useful_iterations + report.lost_iterations, report
    assert len(report.losses) == report.useful_iterations, report


@contextlib.contextmanager
def recording_elastic_runs():
    """Within the block, every ``ElasticTrainer.run`` appends its report
    to the yielded list."""
    from repro.elastic.elastic_trainer import ElasticTrainer

    reports = []
    original = ElasticTrainer.run

    def recording(self, *args, **kwargs):
        report = original(self, *args, **kwargs)
        reports.append(report)
        return report

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ElasticTrainer, "run", recording)
        yield reports


def make_worker_grads(rng: np.random.Generator, world: int, d: int) -> np.ndarray:
    """A ``(world, d)`` gradient matrix, rank ``r``'s gradient in row ``r``."""
    return rng.normal(size=(world, d))


def digest16(text: str) -> str:
    """First 16 hex digits of ``sha256(text)``: the width of every pin."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def rows_digest(rows) -> str:
    """:func:`digest16` of a scorecard's canonical JSON."""
    return digest16(json.dumps(rows, sort_keys=True))


def peak_bytes(call) -> int:
    """``tracemalloc`` peak of one ``call()``, after a warm-up call
    (lazy imports, caches) — the allocation gates' probe."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def speedup(old, new, rounds: int = 60) -> float:
    """Per-call minimum time of ``old`` over that of ``new``, over
    ``rounds`` interleaved rounds of one call each — the speed gates'
    probe: a burst of load that lands in one call moves neither side's
    minimum."""
    best = {old: float("inf"), new: float("inf")}
    for _ in range(rounds):
        for fn in (old, new):
            start = time.perf_counter()
            fn()
            best[fn] = min(best[fn], time.perf_counter() - start)
    return best[old] / best[new]


class PhaseTimer:
    """A ``timer=`` for the trainer: anything with ``add(phase, seconds)``
    will do; this one accumulates phase durations and call counts.

    The trainer guards every timing call with ``if timer is not None``,
    so an un-instrumented run pays nothing; an instrumented run pays two
    ``perf_counter`` calls per phase.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def add(self, phase: str, seconds: float) -> None:
        """Record one timed occurrence of ``phase``."""
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds
        self.calls[phase] = self.calls.get(phase, 0) + 1

    def summary(self) -> dict[str, float]:
        """Phase → accumulated seconds (insertion order)."""
        return dict(self.seconds)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{k}={v * 1e3:.2f}ms" for k, v in self.seconds.items())
        return f"PhaseTimer({parts})"
