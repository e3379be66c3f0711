"""Shared fixtures for the test suite."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.cluster.cloud_presets import make_cluster, paper_testbed
from repro.utils.seeding import new_rng


@pytest.fixture
def rng():
    """Fresh deterministic generator per test."""
    return new_rng(1234)


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


def make_worker_grads(rng: np.random.Generator, world: int, d: int) -> list[np.ndarray]:
    """Helper used across comm/collective tests."""
    return [rng.normal(size=d) for _ in range(world)]


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
