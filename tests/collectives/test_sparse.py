"""SparseVector and the sparse All-Gather aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.sparse import SparseVector, coalesce
from tests.collectives.list_collectives import sparse_allgather_reduce


class TestSparseVector:
    def test_to_dense(self):
        sv = SparseVector(np.array([1.0, 2.0]), np.array([3, 0]), 5)
        np.testing.assert_array_equal(sv.to_dense(), [2.0, 0, 0, 1.0, 0])

    def test_to_dense_accumulates_duplicates(self):
        sv = SparseVector(np.array([1.0, 2.0]), np.array([1, 1]), 3)
        np.testing.assert_array_equal(sv.to_dense(), [0, 3.0, 0])

    def test_validation(self):
        with pytest.raises(ValueError):
            SparseVector(np.zeros(2), np.zeros(3, dtype=int), 5)
        with pytest.raises(ValueError):
            SparseVector(np.zeros(1), np.array([5]), 5)  # index out of range
        with pytest.raises(ValueError):
            SparseVector(np.zeros(1), np.array([-1]), 5)
        with pytest.raises(ValueError):
            SparseVector(np.zeros((1, 1)), np.zeros((1, 1), dtype=int), 5)

    def test_shifted(self):
        sv = SparseVector(np.array([1.0]), np.array([2]), 4)
        shifted = sv.shifted(4, 8)
        assert shifted.indices[0] == 6
        assert shifted.length == 8


class TestCoalesce:
    def test_merges_duplicates(self):
        sv = SparseVector(np.array([1.0, 2.0, 3.0]), np.array([4, 1, 4]), 6)
        merged = coalesce(sv)
        assert merged.nnz == 2
        np.testing.assert_array_equal(merged.indices, [1, 4])
        np.testing.assert_array_equal(merged.values, [2.0, 4.0])

    def test_empty(self):
        sv = SparseVector(np.empty(0), np.empty(0, dtype=int), 5)
        assert coalesce(sv).nnz == 0

    @given(
        length=st.integers(1, 50),
        nnz=st.integers(0, 80),
        seed=st.integers(0, 30),
    )
    @settings(max_examples=40, deadline=None)
    def test_coalesce_preserves_dense(self, length, nnz, seed):
        rng = np.random.default_rng(seed)
        sv = SparseVector(
            rng.normal(size=nnz), rng.integers(0, length, size=nnz), length
        )
        np.testing.assert_allclose(coalesce(sv).to_dense(), sv.to_dense())


class TestSparseAllGatherReduce:
    def test_equals_sum_of_densified(self, rng):
        vectors = []
        for _ in range(4):
            idx = rng.choice(30, size=5, replace=False)
            vectors.append(SparseVector(rng.normal(size=5), idx, 30))
        out = sparse_allgather_reduce(vectors)
        expected = np.sum([v.to_dense() for v in vectors], axis=0)
        for o in out:
            np.testing.assert_allclose(o, expected)

    def test_overlapping_indices_accumulate(self):
        a = SparseVector(np.array([1.0]), np.array([2]), 4)
        b = SparseVector(np.array([5.0]), np.array([2]), 4)
        out = sparse_allgather_reduce([a, b])
        assert out[0][2] == 6.0

    def test_length_mismatch_rejected(self):
        a = SparseVector(np.array([1.0]), np.array([0]), 4)
        b = SparseVector(np.array([1.0]), np.array([0]), 5)
        with pytest.raises(ValueError):
            sparse_allgather_reduce([a, b])

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            sparse_allgather_reduce([])
