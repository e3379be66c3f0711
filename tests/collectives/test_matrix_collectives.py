"""Matrix-native collectives are bit-identical to the ring/tree schedules.

The vectorised hot path replaces the per-rank Python loops with whole-
matrix operations; these tests pin every variant to the step-by-step
schedule simulations, bit for bit, across world sizes and unequal-chunk
dimensions.
"""

import numpy as np
import pytest

from repro.cluster.topology import ClusterTopology
from repro.collectives import reduce_scatter
from repro.collectives import (
    SparseVector,
    batched_scatter_add,
    broadcast_views,
    matrix_reduce_scatter,
    matrix_ring_allreduce,
    matrix_torus_allreduce_2d,
    matrix_tree_allreduce,
)
from tests.collectives.list_collectives import (
    ring_allreduce,
    ring_reduce_scatter,
    torus_allreduce_2d,
    tree_allreduce,
)


@pytest.mark.parametrize(
    "p,d",
    [(1, 7), (2, 8), (3, 5), (4, 16), (5, 1), (8, 37), (6, 1003), (9, 4), (8, 30421)],
)
class TestMatrixFolds:
    def test_reduce_scatter_matches_ring(self, p, d):
        mat = np.random.default_rng(p * 100 + d).standard_normal((p, d))
        flat = matrix_reduce_scatter(mat)
        expected = np.concatenate(ring_reduce_scatter(list(mat)))
        np.testing.assert_array_equal(flat, expected)

    def test_ring_allreduce_matches(self, p, d):
        mat = np.random.default_rng(p * 100 + d).standard_normal((p, d))
        out = matrix_ring_allreduce(mat)
        for reference in ring_allreduce(list(mat)):
            np.testing.assert_array_equal(out, reference)

    def test_tree_allreduce_matches(self, p, d):
        mat = np.random.default_rng(p * 100 + d).standard_normal((p, d))
        out = matrix_tree_allreduce(mat)
        np.testing.assert_array_equal(out, tree_allreduce(list(mat))[0])

    def test_column_slice_input_matches(self, p, d):
        # The torus hands in ``node_acc[:, start:end]``: rows strided.
        wide = np.random.default_rng(p + d).standard_normal((p, d + 11))
        view = wide[:, 5 : 5 + d]
        expected = np.concatenate(ring_reduce_scatter(list(view)))
        np.testing.assert_array_equal(matrix_reduce_scatter(view), expected)
        np.testing.assert_array_equal(matrix_ring_allreduce(view), expected)

    def test_inputs_not_mutated(self, p, d):
        mat = np.random.default_rng(0).standard_normal((p, d))
        original = mat.copy()
        matrix_reduce_scatter(mat)
        matrix_ring_allreduce(mat)
        matrix_tree_allreduce(mat)
        np.testing.assert_array_equal(mat, original)


#: ``(p, d)`` pairs with ``d < p``, ``d % p != 0``, every chunk one
#: element, and chunks either side of the fold split (2 048 elements).
FOLD_GRID = [
    (3, 2), (3, 7), (4, 1), (5, 3), (5, 12), (7, 7), (8, 5), (8, 37), (8, 862),
    (16, 15), (16, 862), (33, 1000), (64, 862), (128, 862),
    (5, 5 * 2047 + 4), (5, 5 * 2048), (8, 8 * 2048 + 7),
]


class TestReduceScatterFolds:
    """Both folds of ``matrix_reduce_scatter`` — chunk by chunk, and one
    ring step across all chunks — against the step-by-step ring."""

    @pytest.mark.parametrize("p,d", FOLD_GRID)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("below", [0, reduce_scatter._DIAGONAL_BELOW, 10**9])
    def test_every_fold_matches_the_ring_bit_for_bit(self, monkeypatch, p, d, dtype, below):
        monkeypatch.setattr(reduce_scatter, "_DIAGONAL_BELOW", below)
        mat = np.random.default_rng(p * 1000 + d).standard_normal((p, d)).astype(dtype)
        want = np.concatenate(ring_reduce_scatter(list(mat)))
        assert matrix_reduce_scatter(mat).tobytes() == want.tobytes()

    @pytest.mark.parametrize("p,d", [(2, 9), (3, 10), (8, 37), (16, 862), (5, 5 * 2048)])
    def test_out_receives_the_fold(self, p, d):
        # A strided column block in, a strided row view out.
        wide = np.random.default_rng(d).standard_normal((p, d + 9)).astype(np.float32)
        view = wide[:, 4 : 4 + d]
        backing = np.full((2, 2 * d), np.nan, dtype=np.float32)
        out = backing[1, ::2]
        assert matrix_reduce_scatter(view, out=out) is out
        want = np.concatenate(ring_reduce_scatter(list(view)))
        np.testing.assert_array_equal(out, want)
        assert np.isnan(backing[0]).all() and np.isnan(backing[1, 1::2]).all()

    @pytest.mark.parametrize(
        "out", [np.empty(10, dtype=np.float32), np.empty(11), np.empty((1, 10))]
    )
    def test_out_must_fit(self, out):
        with pytest.raises(ValueError, match="out is"):
            matrix_reduce_scatter(np.zeros((4, 10)), out=out)


@pytest.mark.parametrize("m,n,d", [(1, 1, 4), (1, 4, 10), (4, 1, 9), (2, 2, 8), (4, 2, 862), (3, 3, 100)])
def test_torus_matches_schedule(m, n, d):
    topo = ClusterTopology(m, n)
    mat = np.random.default_rng(m * 31 + n * 7 + d).standard_normal((m * n, d))
    out = matrix_torus_allreduce_2d(mat, topo)
    for reference in torus_allreduce_2d(list(mat), topo):
        np.testing.assert_array_equal(out, reference)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_every_collective_keeps_its_input_dtype_and_its_schedules_bits(dtype):
    """The float32 trainer's matrix goes through the same folds: each live
    collective and its list-form schedule return the input's dtype, and
    the same bits."""
    topo = ClusterTopology(2, 4)
    rng = np.random.default_rng(29)
    mat = rng.standard_normal((topo.world_size, 1003)).astype(dtype)
    pairs = [
        (matrix_reduce_scatter(mat), np.concatenate(ring_reduce_scatter(list(mat)))),
        (matrix_ring_allreduce(mat), ring_allreduce(list(mat))[0]),
        (matrix_tree_allreduce(mat), tree_allreduce(list(mat))[0]),
        (matrix_torus_allreduce_2d(mat, topo), torus_allreduce_2d(list(mat), topo)[0]),
    ]
    vecs = [
        SparseVector(rng.standard_normal(40).astype(dtype), rng.integers(0, 1003, 40), 1003)
        for _ in range(6)
    ]
    expected = np.zeros(1003, dtype=dtype)
    for v in vecs:
        np.add.at(expected, v.indices, v.values)
    pairs.append((batched_scatter_add(vecs, 1003), expected))
    for got, want in pairs:
        assert got.dtype == want.dtype == dtype
        np.testing.assert_array_equal(got, want)


class TestValidation:
    def test_reduce_scatter_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            matrix_reduce_scatter(np.zeros(5))
        with pytest.raises(ValueError):
            matrix_reduce_scatter(np.zeros((0, 4)))

    def test_tree_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            matrix_tree_allreduce(np.zeros((2, 3, 4)))

    def test_torus_rejects_world_mismatch(self):
        with pytest.raises(ValueError):
            matrix_torus_allreduce_2d(np.zeros((3, 4)), ClusterTopology(2, 2))


class TestBatchedScatterAdd:
    def test_matches_sequential_add_at(self):
        rng = np.random.default_rng(3)
        length = 500
        vecs = [
            SparseVector(rng.standard_normal(40), rng.integers(0, length, 40), length)
            for _ in range(6)
        ]
        expected = np.zeros(length)
        for v in vecs:
            np.add.at(expected, v.indices, v.values)
        np.testing.assert_array_equal(batched_scatter_add(vecs, length), expected)

    def test_offsets_rebase_shard_selections(self):
        rng = np.random.default_rng(4)
        shard = SparseVector(rng.standard_normal(3), np.array([0, 2, 4]), 5)
        out = batched_scatter_add([shard, shard], 10, offsets=[0, 5])
        np.testing.assert_array_equal(out[:5], shard.to_dense())
        np.testing.assert_array_equal(out[5:], shard.to_dense())

    def test_rejects_out_of_range_and_empty(self):
        v = SparseVector(np.ones(1), np.array([3]), 4)
        with pytest.raises(ValueError):
            batched_scatter_add([v], 3)
        with pytest.raises(ValueError):
            batched_scatter_add([], 3)
        with pytest.raises(ValueError):
            batched_scatter_add([v], 4, offsets=[0, 1])


class TestBroadcastViews:
    def test_views_share_one_buffer(self):
        base = np.arange(5.0)
        views = broadcast_views(base, 3)
        assert len(views) == 3
        for v in views:
            np.testing.assert_array_equal(v, base)
            assert v.base is base

    def test_rejects_bad_world(self):
        with pytest.raises(ValueError):
            broadcast_views(np.arange(3.0), 0)
