"""Exact top-k: the sort and argpartition paths must agree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.exact_topk import ExactTopK, naive_topk_sort, topk_argpartition
from tests.compression.topk_oracles import exact_threshold


class TestAgreement:
    @given(d=st.integers(1, 500), seed=st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_same_selected_magnitude_mass(self, d, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=d)
        k = max(1, d // 10)
        by_sort = naive_topk_sort(x, k)
        by_part = topk_argpartition(x, k)
        assert by_sort.nnz == by_part.nnz == k
        # Selected |value| multisets must be identical (ties may swap
        # indices but not magnitudes).
        np.testing.assert_allclose(
            np.sort(np.abs(by_sort.values)), np.sort(np.abs(by_part.values))
        )

    def test_sort_orders_by_descending_magnitude(self, rng):
        x = rng.normal(size=100)
        sv = naive_topk_sort(x, 10)
        mags = np.abs(sv.values)
        assert np.all(mags[:-1] >= mags[1:])


class TestEdgeCases:
    def test_k_zero(self, rng):
        assert naive_topk_sort(rng.normal(size=10), 0).nnz == 0
        assert topk_argpartition(rng.normal(size=10), 0).nnz == 0

    def test_k_equals_d(self, rng):
        x = rng.normal(size=10)
        sv = topk_argpartition(x, 10)
        np.testing.assert_allclose(np.sort(sv.to_dense()), np.sort(x))

    def test_k_out_of_range(self, rng):
        with pytest.raises(ValueError):
            topk_argpartition(rng.normal(size=5), 6)
        with pytest.raises(ValueError):
            naive_topk_sort(rng.normal(size=5), -1)

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            topk_argpartition(np.zeros((2, 2)), 1)


class TestExactThreshold:
    def test_known_values(self):
        x = np.array([5.0, -3.0, 1.0, -4.0, 2.0])
        assert exact_threshold(x, 1) == 5.0
        assert exact_threshold(x, 2) == 4.0
        assert exact_threshold(x, 5) == 1.0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            exact_threshold(np.zeros(3), 0)

    def test_threshold_selects_at_least_k(self, rng):
        x = rng.normal(size=1000)
        k = 50
        thres = exact_threshold(x, k)
        assert np.count_nonzero(np.abs(x) >= thres) >= k


class TestCompressorClass:
    def test_method_validation(self):
        with pytest.raises(ValueError):
            ExactTopK("bogus")

    def test_sort_name_is_nn_topk(self):
        assert ExactTopK("sort").name == "nn.topk"

    def test_select_dispatch(self, rng):
        x = rng.normal(size=100)
        a = ExactTopK("sort").select(x, 5)
        b = ExactTopK("argpartition").select(x, 5)
        np.testing.assert_allclose(
            np.sort(np.abs(a.values)), np.sort(np.abs(b.values))
        )
