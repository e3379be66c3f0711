"""MSTopK (Algorithm 1) — the paper's core operator.

Key guarantees tested:

* **exactness of k** — always returns exactly ``k`` entries (Algorithm
  2's fixed-size All-Gather depends on it), property-tested;
* **head inclusion** — every element with ``|x| >= thres1`` is selected,
  so the approximation differs from exact top-k only inside the
  ``[thres2, thres1)`` band;
* **high recall** on well-behaved gradients;
* graceful handling of the degenerate distributions the paper's
  pseudo-code ignores (constants, ties, tiny inputs).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.base import density_to_k
from repro.compression.exact_topk import topk_argpartition
from repro.compression.mstopk import MSTopK, mstopk_select, mstopk_select_batch
from repro.utils.seeding import new_rng
from tests.compression.topk_oracles import exact_threshold, mstopk_threshold_search


class TestExactK:
    @given(
        d=st.integers(1, 3000),
        density_pct=st.integers(1, 100),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=80, deadline=None)
    def test_returns_exactly_k(self, d, density_pct, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=d)
        k = max(1, (d * density_pct) // 100)
        sv = mstopk_select(x, k, rng=rng)
        assert sv.nnz == k
        # All indices unique and in range.
        assert len(np.unique(sv.indices)) == k

    def test_k_zero(self, rng):
        sv = mstopk_select(rng.normal(size=100), 0)
        assert sv.nnz == 0

    def test_k_equals_d(self, rng):
        x = rng.normal(size=64)
        sv = mstopk_select(x, 64)
        assert sv.nnz == 64
        np.testing.assert_allclose(sv.to_dense(), x)

    def test_k_out_of_range(self, rng):
        with pytest.raises(ValueError):
            mstopk_select(rng.normal(size=10), 11)
        with pytest.raises(ValueError):
            mstopk_select(rng.normal(size=10), -1)


class TestApproximationQuality:
    def test_values_are_original_entries(self, rng):
        x = rng.normal(size=500)
        sv = mstopk_select(x, 25, rng=rng)
        np.testing.assert_array_equal(sv.values, x[sv.indices])

    def test_head_elements_always_included(self, rng):
        x = rng.normal(size=2000)
        k = 40
        search = mstopk_threshold_search(np.abs(x), k)
        sv = mstopk_select(x, k, rng=rng)
        selected = set(sv.indices.tolist())
        if search.thres1 > 0:
            head = np.flatnonzero(np.abs(x) >= search.thres1)
            if head.size <= k:
                assert set(head.tolist()) <= selected

    def test_high_recall_on_gaussian(self, rng):
        x = rng.normal(size=20_000)
        k = 200
        approx = set(mstopk_select(x, k, rng=rng).indices.tolist())
        exact = set(topk_argpartition(x, k).indices.tolist())
        recall = len(approx & exact) / k
        assert recall > 0.7, f"recall {recall} too low"

    def test_selected_mass_close_to_exact(self, rng):
        # The L1 mass captured must be close to the exact top-k mass.
        x = rng.normal(size=20_000)
        k = 200
        approx_mass = np.abs(mstopk_select(x, k, rng=rng).values).sum()
        exact_mass = np.abs(topk_argpartition(x, k).values).sum()
        assert approx_mass >= 0.9 * exact_mass

    def test_more_samplings_never_hurt_much(self, rng):
        x = rng.normal(size=10_000)
        k = 100
        exact = set(topk_argpartition(x, k).indices.tolist())
        recall_10 = len(
            set(mstopk_select(x, k, n_samplings=10, rng=new_rng(0)).indices.tolist())
            & exact
        )
        recall_40 = len(
            set(mstopk_select(x, k, n_samplings=40, rng=new_rng(0)).indices.tolist())
            & exact
        )
        assert recall_40 >= recall_10 - 5

    def test_recall_at_paper_samplings(self):
        # The paper picks N = 30 without an ablation: recall there is
        # high and no worse than with very few samplings.
        x = new_rng(0).normal(size=200_000)
        k = 200
        exact = set(topk_argpartition(x, k).indices.tolist())

        def recall(n):
            selected = mstopk_select(x, k, n_samplings=n, rng=new_rng(1)).indices
            return len(set(selected.tolist()) & exact) / k

        assert recall(30) > 0.8
        assert recall(30) >= recall(5)


class TestDegenerateInputs:
    def test_constant_vector(self):
        x = np.full(100, 3.0)
        sv = mstopk_select(x, 10)
        assert sv.nnz == 10
        np.testing.assert_array_equal(sv.values, np.full(10, 3.0))

    def test_zero_vector(self):
        sv = mstopk_select(np.zeros(50), 5)
        assert sv.nnz == 5

    def test_one_hot_vector(self):
        x = np.zeros(100)
        x[42] = 7.0
        sv = mstopk_select(x, 1)
        assert sv.nnz == 1
        assert 42 in sv.indices

    def test_heavy_ties(self):
        x = np.concatenate([np.full(50, 2.0), np.full(50, 1.0)])
        sv = mstopk_select(x, 10)
        assert sv.nnz == 10
        # All selected magnitudes must be 2.0 (the larger tie group).
        np.testing.assert_array_equal(np.abs(sv.values), np.full(10, 2.0))

    def test_negative_values_selected_by_magnitude(self):
        x = np.array([0.1, -5.0, 0.2, 4.0, -0.3])
        sv = mstopk_select(x, 2)
        assert set(sv.indices.tolist()) == {1, 3}

    def test_tiny_input(self):
        sv = mstopk_select(np.array([1.0]), 1)
        assert sv.nnz == 1

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            mstopk_select(np.zeros((3, 3)), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_shard_rejected_by_scalar_and_batch_alike(self, bad):
        # One NaN used to make the selection coordinates 0..k-1 whatever
        # the magnitudes, and park the NaN in the EF residual for good.
        x = np.random.default_rng(0).standard_normal(1000)
        x[500] = bad
        clean = np.random.default_rng(1).standard_normal(1000)
        with pytest.raises(ValueError, match=r"^shard 0: non-finite gradient"):
            mstopk_select(x, 10)
        with pytest.raises(ValueError, match=r"^shard 0: non-finite gradient"):
            mstopk_threshold_search(np.abs(x), 10)
        with pytest.raises(ValueError, match=r"^shard 2: non-finite gradient"):
            mstopk_select_batch([clean, clean[:7], x], [10, 7, 10])
        with pytest.raises(ValueError, match=r"^shard 1: non-finite gradient"):
            MSTopK().select_batch(np.stack([clean, x]), 10)


class TestThresholdSearch:
    def test_brackets_exact_threshold(self, rng):
        x = np.abs(rng.normal(size=5000))
        k = 50
        search = mstopk_threshold_search(x, k)
        thres = exact_threshold(x, k)
        # thres1 selects at most k elements; thres2 selects more than k.
        if search.thres1 > 0:
            assert search.k1 <= k
            assert int(np.count_nonzero(x >= search.thres1)) <= k
        if search.thres2 > 0:
            assert search.k2 > k
            assert int(np.count_nonzero(x >= search.thres2)) > k
            # thres2 undershoots the exact threshold; thres1 brackets it
            # from the other side up to tie granularity.
            assert search.thres2 <= thres
            assert search.thres2 < search.thres1 or search.thres1 == 0

    def test_invalid_samplings(self):
        with pytest.raises(ValueError):
            mstopk_threshold_search(np.abs(np.random.default_rng(0).normal(size=10)), 2, 0)


class TestDensityToK:
    @pytest.mark.parametrize(
        "d, density, k",
        [(1000, 0.01, 10), (1000, 0.0015, 2), (10, 0.001, 1), (7, 1.0, 7), (0, 0.5, 0)],
        ids=["exact", "rounded", "at-least-one", "dense", "empty"],
    )
    def test_k_is_rho_d(self, d, density, k):
        assert density_to_k(d, density) == k

    def test_validation(self):
        for d, density in [(-1, 0.1), (10, 0.0), (10, 1.5)]:
            with pytest.raises(ValueError):
                density_to_k(d, density)


class TestCompressorInterface:
    def test_select_density(self, rng):
        x = rng.normal(size=1000)
        sv = MSTopK().select(x, density_to_k(x.size, 0.01), rng=rng)
        assert sv.nnz == 10

    def test_repr(self):
        assert "30" in repr(MSTopK(30))

    def test_invalid_n_samplings(self):
        with pytest.raises(ValueError):
            MSTopK(0)

    def test_deterministic_given_same_rng_seed(self, rng):
        x = rng.normal(size=4000)
        a = mstopk_select(x, 40, rng=new_rng(5))
        b = mstopk_select(x, 40, rng=new_rng(5))
        np.testing.assert_array_equal(a.indices, b.indices)
