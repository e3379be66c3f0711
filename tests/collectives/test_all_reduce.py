"""The list-form All-Reduce oracles: ring, tree, 2D-torus — all must equal the sum."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import ClusterTopology
from tests.collectives.list_collectives import (
    ring_allreduce,
    torus_allreduce_2d,
    tree_allreduce,
)


def _reference(xs):
    return np.sum(xs, axis=0)


class TestRingAllReduce:
    @given(p=st.integers(1, 8), d=st.integers(1, 48), seed=st.integers(0, 30))
    @settings(max_examples=40, deadline=None)
    def test_equals_sum(self, p, d, seed):
        rng = np.random.default_rng(seed)
        xs = [rng.normal(size=d) for _ in range(p)]
        out = ring_allreduce(xs)
        for o in out:
            np.testing.assert_allclose(o, _reference(xs), rtol=1e-10, atol=1e-12)

    def test_all_workers_identical(self, rng):
        xs = [rng.normal(size=17) for _ in range(5)]
        out = ring_allreduce(xs)
        for o in out[1:]:
            np.testing.assert_array_equal(o, out[0])


class TestTreeAllReduce:
    @given(p=st.integers(1, 12), d=st.integers(1, 32), seed=st.integers(0, 30))
    @settings(max_examples=40, deadline=None)
    def test_equals_sum(self, p, d, seed):
        rng = np.random.default_rng(seed)
        xs = [rng.normal(size=d) for _ in range(p)]
        out = tree_allreduce(xs)
        for o in out:
            np.testing.assert_allclose(o, _reference(xs), rtol=1e-10, atol=1e-12)

    def test_non_power_of_two(self, rng):
        xs = [rng.normal(size=6) for _ in range(5)]
        out = tree_allreduce(xs)
        np.testing.assert_allclose(out[0], _reference(xs))

    def test_deterministic_accumulation_order(self, rng):
        xs = [rng.normal(size=8) for _ in range(7)]
        a = tree_allreduce(xs)
        b = tree_allreduce(xs)
        np.testing.assert_array_equal(a[0], b[0])


class TestTorus2D:
    @given(
        m=st.integers(1, 4),
        n=st.integers(1, 4),
        d=st.integers(1, 40),
        seed=st.integers(0, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_sum(self, m, n, d, seed):
        rng = np.random.default_rng(seed)
        topo = ClusterTopology(m, n)
        xs = [rng.normal(size=d) for _ in range(topo.world_size)]
        out = torus_allreduce_2d(xs, topo)
        for o in out:
            np.testing.assert_allclose(o, _reference(xs), rtol=1e-9, atol=1e-11)

    def test_paper_shape_16x8_small_vector(self, rng):
        topo = ClusterTopology(16, 8)
        xs = [rng.normal(size=5) for _ in range(128)]
        out = torus_allreduce_2d(xs, topo)
        np.testing.assert_allclose(out[0], _reference(xs), rtol=1e-9)

    def test_world_size_mismatch(self, rng):
        topo = ClusterTopology(2, 2)
        with pytest.raises(ValueError):
            torus_allreduce_2d([rng.normal(size=4)] * 3, topo)

    def test_inputs_not_mutated(self, rng):
        topo = ClusterTopology(2, 2)
        xs = [rng.normal(size=9) for _ in range(4)]
        originals = [x.copy() for x in xs]
        torus_allreduce_2d(xs, topo)
        for x, o in zip(xs, originals):
            np.testing.assert_array_equal(x, o)
