"""DGC double-sampling selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.dgc import DGCTopK
from repro.compression.exact_topk import topk_argpartition
from repro.utils.seeding import new_rng


class TestDGC:
    @given(d=st.integers(10, 2000), seed=st.integers(0, 40))
    @settings(max_examples=50, deadline=None)
    def test_returns_exactly_k(self, d, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=d)
        k = max(1, d // 20)
        sv = DGCTopK(sample_fraction=0.2).select(x, k, rng=rng)
        assert sv.nnz == k
        assert len(np.unique(sv.indices)) == k

    def test_good_recall_with_large_sample(self, rng):
        x = rng.normal(size=10_000)
        k = 100
        approx = set(
            DGCTopK(sample_fraction=0.3).select(x, k, rng=new_rng(1)).indices.tolist()
        )
        exact = set(topk_argpartition(x, k).indices.tolist())
        assert len(approx & exact) / k > 0.7

    def test_k_zero_and_full(self, rng):
        x = rng.normal(size=50)
        assert DGCTopK().select(x, 0, rng=rng).nnz == 0
        assert DGCTopK().select(x, 50, rng=rng).nnz == 50

    def test_fallback_on_undershoot(self):
        # A vector with one giant element and a tiny sample makes the
        # threshold estimate overshoot; DGC must still return k entries.
        rng = new_rng(3)
        x = np.ones(1000) * 0.001
        x[1] = 100.0
        sv = DGCTopK(sample_fraction=0.01).select(x, 10, rng=rng)
        assert sv.nnz == 10
        assert 1 in sv.indices  # the giant element must be found

    def test_validation(self):
        with pytest.raises(ValueError):
            DGCTopK(sample_fraction=0.0)
        with pytest.raises(ValueError):
            DGCTopK(sample_fraction=1.5)

    def test_values_match_source(self, rng):
        x = rng.normal(size=500)
        sv = DGCTopK(sample_fraction=0.2).select(x, 20, rng=rng)
        np.testing.assert_array_equal(sv.values, x[sv.indices])
