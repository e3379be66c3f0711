"""Batched compression is bit-identical to the per-shard scalar paths.

Covers the multi-shard MSTopK threshold search / selection, the batched
exact top-k, the base-class fallback used by non-vectorised compressors,
error-compensated selection of many rows, and the regression for the old
``thres1 == 0.0`` "unset" sentinel (frozen-layer / all-zero gradients).
"""

import numpy as np
import pytest

from repro.compression.base import TopKCompressor
from repro.compression.dgc import DGCTopK
from repro.compression.error_feedback import ErrorFeedback, select_with_feedback
from repro.compression.exact_topk import ExactTopK
from repro.compression.mstopk import MSTopK, mstopk_select, mstopk_select_batch
from repro.compression.randomk import RandomK
from repro.utils.seeding import new_rng
from tests.compression.topk_oracles import (
    mstopk_threshold_search,
    mstopk_threshold_search_batch,
)


def _shards(rng, sizes):
    return [rng.standard_normal(s) for s in sizes]


class TestBatchedThresholdSearch:
    def test_matches_scalar_search_exactly(self):
        rng = np.random.default_rng(0)
        shards = _shards(rng, (431, 431, 100, 37, 1000))
        ks = [22, 5, 10, 3, 100]
        mags = [np.abs(s) for s in shards]
        batch = mstopk_threshold_search_batch(mags, ks)
        for mag, k, got in zip(mags, ks, batch):
            assert got == mstopk_threshold_search(mag, k)

    def test_unequal_lengths_never_perturb_results(self):
        # Padding must not leak into counts or the per-shard mean/max.
        rng = np.random.default_rng(1)
        shards = _shards(rng, (100, 999))
        mags = [np.abs(s) for s in shards]
        batch = mstopk_threshold_search_batch(mags, [10, 50])
        assert batch[0] == mstopk_threshold_search(mags[0], 10)
        assert batch[1] == mstopk_threshold_search(mags[1], 50)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            mstopk_threshold_search_batch([np.abs(np.ones(4))], [1], 0)
        with pytest.raises(ValueError):
            mstopk_threshold_search_batch([np.abs(np.ones(4))], [1, 2])
        with pytest.raises(ValueError):
            mstopk_threshold_search_batch([np.abs(np.ones(4))], [5])
        assert mstopk_threshold_search_batch([], []) == []


class TestSentinelRegression:
    """The old code used ``thres1 == 0.0`` to mean "never bracketed"."""

    def test_all_zero_gradient_with_k_equal_d_brackets(self):
        # A frozen layer's shard: every sampled threshold is 0.0 and
        # selects all d elements.  With k == d that IS a valid bracket
        # (k1 = d at thres1 = 0.0); the sentinel made it look unset.
        search = mstopk_threshold_search(np.zeros(32), 32)
        assert search.found1
        assert search.k1 == 32
        assert search.thres1 == 0.0

    def test_all_zero_gradient_with_k_below_d_reports_unset(self):
        search = mstopk_threshold_search(np.zeros(32), 8)
        assert not search.found1
        assert search.k1 == 0

    def test_frozen_layer_select_returns_exactly_k(self):
        rng = new_rng(0)
        sv = mstopk_select(np.zeros(50), 7, rng=rng)
        assert sv.nnz == 7
        assert len(np.unique(sv.indices)) == 7
        np.testing.assert_array_equal(sv.values, np.zeros(7))

    def test_frozen_layer_batch_matches_scalar_and_rng_stream(self):
        shards = [np.zeros(50), np.full(60, 2.5), np.zeros(10)]
        ks = [7, 6, 10]
        ra, rb = new_rng(3), new_rng(3)
        scalar = [mstopk_select(x, k, rng=ra) for x, k in zip(shards, ks)]
        batch = mstopk_select_batch(shards, ks, rng=rb)
        for a, b in zip(scalar, batch):
            np.testing.assert_array_equal(a.indices, b.indices)
            np.testing.assert_array_equal(a.values, b.values)
        assert ra.integers(0, 1 << 30) == rb.integers(0, 1 << 30)


class TestBatchedSelect:
    @pytest.mark.parametrize("compressor", [MSTopK(), ExactTopK(), DGCTopK(), RandomK()])
    def test_select_batch_matches_sequential(self, compressor):
        rng_data = np.random.default_rng(5)
        mat = rng_data.standard_normal((8, 300))
        ra, rb = new_rng(11), new_rng(11)
        scalar = [compressor.select(row, 15, rng=ra) for row in mat]
        batch = compressor.select_batch(mat, 15, rng=rb)
        for a, b in zip(scalar, batch):
            np.testing.assert_array_equal(np.sort(a.indices), np.sort(b.indices))
            np.testing.assert_array_equal(a.indices, b.indices)
            np.testing.assert_array_equal(a.values, b.values)
        # The batched path must consume the rng stream identically.
        assert ra.integers(0, 1 << 30) == rb.integers(0, 1 << 30)

    def test_unequal_shards_and_edge_ks(self):
        rng_data = np.random.default_rng(6)
        shards = _shards(rng_data, (40, 41, 12))
        ks = [0, 41, 5]
        ra, rb = new_rng(2), new_rng(2)
        scalar = [mstopk_select(x, k, rng=ra) for x, k in zip(shards, ks)]
        batch = mstopk_select_batch(shards, ks, rng=rb)
        for a, b in zip(scalar, batch):
            np.testing.assert_array_equal(a.indices, b.indices)
            np.testing.assert_array_equal(a.values, b.values)

    def test_base_class_validation(self):
        comp = MSTopK()
        with pytest.raises(ValueError):
            comp.select_batch(np.zeros((2, 4)), [1])
        with pytest.raises(ValueError):
            comp.select_batch(np.zeros((2, 4)), [1, 9])
        with pytest.raises(ValueError):
            comp.select_batch([np.zeros((2, 2))], [1])

    def test_exact_topk_batch_is_argpartition_rowwise(self):
        mat = np.random.default_rng(7).standard_normal((5, 200))
        comp = ExactTopK()
        batch = comp.select_batch(mat, 9)
        for row, sv in zip(mat, batch):
            reference = comp.select(row, 9)
            np.testing.assert_array_equal(sv.indices, reference.indices)
            np.testing.assert_array_equal(sv.values, reference.values)


class TestSelectWithFeedback:
    """``select_with_feedback`` is the per-key loop — ``apply``, select,
    ``update`` — with one multi-shard selection, bit for bit."""

    @staticmethod
    def _scalar_step(ef, comp, mat, k, rng=None):
        corrected = [ef.apply(r, mat[r]) for r in range(len(mat))]
        sents = [comp.select(row, k, rng=rng) for row in corrected]
        for r, (row, sent) in enumerate(zip(corrected, sents)):
            ef.update(r, row, sent)
        return np.stack(corrected), sents

    def test_apply_and_update_match_scalar_over_steps(self):
        comp = ExactTopK()
        ef_scalar, ef_batch = ErrorFeedback(), ErrorFeedback()
        rng_data = np.random.default_rng(8)
        for _ in range(4):
            mat = rng_data.standard_normal((5, 64))
            corrected_scalar, sents = self._scalar_step(ef_scalar, comp, mat, 6)
            corrected_batch = np.empty_like(mat)
            batch = select_with_feedback(comp, ef_batch, range(5), mat, 6, out=corrected_batch)
            assert corrected_scalar.tobytes() == corrected_batch.tobytes()
            for a, b in zip(sents, batch):
                assert (a.values.tobytes(), a.indices.tobytes()) == (b.values.tobytes(), b.indices.tobytes())
            assert list(ef_scalar.keys()) == list(ef_batch.keys())
            for r in range(5):
                assert ef_scalar.residual(r).tobytes() == ef_batch.residual(r).tobytes()

    def test_scaled_values_keep_difference(self):
        # RandomK transmits scaled values; the residual must keep the
        # difference exactly as the scalar rule does, on the same rng stream.
        ef_scalar, ef_batch = ErrorFeedback(), ErrorFeedback()
        comp = RandomK()
        mat = np.random.default_rng(9).standard_normal((3, 32))
        ra, rb = new_rng(4), new_rng(4)
        self._scalar_step(ef_scalar, comp, mat, 4, rng=ra)
        select_with_feedback(comp, ef_batch, range(3), mat, 4, out=np.empty_like(mat), rng=rb)
        for r in range(3):
            assert ef_scalar.residual(r).tobytes() == ef_batch.residual(r).tobytes()
        assert ra.integers(1 << 30) == rb.integers(1 << 30)

    def test_a_short_selection_list_is_refused_before_any_write(self):
        class Dropping(ExactTopK):
            def select_batch(self, xs, ks, *, rng=None):
                return super().select_batch(xs, ks, rng=rng)[:-1]

        ef = ErrorFeedback()
        mat = np.random.default_rng(3).standard_normal((3, 8))
        with pytest.raises(ValueError, match="2 selections for 3 shards"):
            select_with_feedback(Dropping(), ef, range(3), mat, 2, out=mat.copy())
        assert len(ef) == 0


def test_custom_compressor_inherits_batch_loop():
    class FirstK(TopKCompressor):
        name = "first-k"

        def select(self, x, k, *, rng=None):
            x = self._validate(x, k)
            from repro.collectives.sparse import SparseVector

            idx = np.arange(k, dtype=np.int64)
            return SparseVector(x[idx], idx, x.size)

    comp = FirstK()
    out = comp.select_batch(np.arange(12.0).reshape(3, 4), 2)
    assert [sv.nnz for sv in out] == [2, 2, 2]
    np.testing.assert_array_equal(out[1].values, [4.0, 5.0])
