"""The step-by-step ring All-Gather of the list-form oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.collectives.list_collectives import ring_all_gather


class TestRingAllGather:
    @given(p=st.integers(1, 8), chunk=st.integers(1, 16), seed=st.integers(0, 50))
    @settings(max_examples=40, deadline=None)
    def test_matches_concat(self, p, chunk, seed):
        rng = np.random.default_rng(seed)
        xs = [rng.normal(size=chunk) for _ in range(p)]
        for out in ring_all_gather(xs):
            np.testing.assert_array_equal(out, np.concatenate(xs))

    def test_rank_order_preserved(self):
        xs = [np.full(2, float(r)) for r in range(4)]
        out = ring_all_gather(xs)
        np.testing.assert_array_equal(
            out[2], [0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
        )

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            ring_all_gather([np.zeros(2), np.zeros(3)])

    def test_single_worker(self, rng):
        x = rng.normal(size=5)
        [out] = ring_all_gather([x])
        np.testing.assert_array_equal(out, x)
