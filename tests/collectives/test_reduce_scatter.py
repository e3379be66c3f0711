"""The list-form ring Reduce-Scatter oracle — step 1 of Algorithm 2."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.partition import chunk_bounds
from tests.collectives.list_collectives import (
    reference_reduce_scatter,
    ring_reduce_scatter,
)


class TestRingReduceScatter:
    def test_two_workers(self, rng):
        xs = [rng.normal(size=10) for _ in range(2)]
        shards = ring_reduce_scatter(xs)
        total = xs[0] + xs[1]
        np.testing.assert_allclose(shards[0], total[:5])
        np.testing.assert_allclose(shards[1], total[5:])

    def test_owner_is_chunk_index(self, rng):
        # Worker i must own chunk i — Algorithm 2 Eq. (4) depends on it.
        p, d = 4, 23
        xs = [rng.normal(size=d) for _ in range(p)]
        shards = ring_reduce_scatter(xs)
        total = np.sum(xs, axis=0)
        for worker, (start, end) in enumerate(chunk_bounds(d, p)):
            np.testing.assert_allclose(shards[worker], total[start:end])

    def test_single_worker(self, rng):
        x = rng.normal(size=7)
        [shard] = ring_reduce_scatter([x])
        np.testing.assert_array_equal(shard, x)

    @given(
        p=st.integers(1, 9),
        d=st.integers(1, 64),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, p, d, seed):
        rng = np.random.default_rng(seed)
        xs = [rng.normal(size=d) for _ in range(p)]
        ring = ring_reduce_scatter(xs)
        reference = reference_reduce_scatter(xs)
        assert len(ring) == len(reference)
        for r, ref in zip(ring, reference):
            np.testing.assert_allclose(r, ref, rtol=1e-10, atol=1e-12)

    def test_does_not_mutate_inputs(self, rng):
        xs = [rng.normal(size=8) for _ in range(4)]
        originals = [x.copy() for x in xs]
        ring_reduce_scatter(xs)
        for x, o in zip(xs, originals):
            np.testing.assert_array_equal(x, o)

    def test_d_smaller_than_p(self, rng):
        # Some workers own empty shards.
        xs = [rng.normal(size=2) for _ in range(4)]
        shards = ring_reduce_scatter(xs)
        sizes = [s.size for s in shards]
        assert sizes == [1, 1, 0, 0]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ring_reduce_scatter([np.zeros(4), np.zeros(5)])
