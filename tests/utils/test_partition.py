"""Partitioning invariants — these underpin every collective."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.profiles import resnet50_profile
from repro.utils.partition import (
    chunk_bounds,
    chunk_sizes,
    flatten_tensors,
    partition_indices,
    partition_layers,
    partition_layers_balanced,
    reassemble,
    shard_slice,
    unflatten_tensors,
)

RESNET50_SIZES = list(resnet50_profile().layer_sizes)


class TestChunkSizes:
    def test_exact_division(self):
        assert chunk_sizes(12, 4) == [3, 3, 3, 3]

    def test_remainder_goes_to_first_chunks(self):
        assert chunk_sizes(10, 3) == [4, 3, 3]

    def test_more_parts_than_total(self):
        assert chunk_sizes(2, 4) == [1, 1, 0, 0]

    def test_zero_total(self):
        assert chunk_sizes(0, 3) == [0, 0, 0]

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            chunk_sizes(10, 0)

    def test_negative_total(self):
        with pytest.raises(ValueError):
            chunk_sizes(-1, 2)

    @given(total=st.integers(0, 10_000), parts=st.integers(1, 64))
    def test_sizes_sum_to_total(self, total, parts):
        sizes = chunk_sizes(total, parts)
        assert sum(sizes) == total
        assert len(sizes) == parts
        # Near-equal: max - min <= 1.
        assert max(sizes) - min(sizes) <= 1


class TestChunkBounds:
    def test_bounds_cover_range(self):
        assert chunk_bounds(10, 3) == [(0, 4), (4, 7), (7, 10)]

    @given(total=st.integers(0, 5_000), parts=st.integers(1, 32))
    def test_bounds_are_contiguous_partition(self, total, parts):
        bounds = chunk_bounds(total, parts)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == total
        for (_, end), (start, _) in zip(bounds, bounds[1:]):
            assert end == start

    def test_shard_slice_matches_bounds(self):
        assert shard_slice(10, 3, 1) == slice(4, 7)

    def test_shard_slice_out_of_range(self):
        with pytest.raises(IndexError):
            shard_slice(10, 3, 3)

    def test_partition_indices_cover_all(self):
        parts = partition_indices(11, 4)
        joined = np.concatenate(parts)
        assert np.array_equal(joined, np.arange(11))


class TestPartitionLayers:
    def test_contiguous_assignment(self):
        assignment = partition_layers([10, 20, 30, 40], 2)
        assert assignment == [[0, 1], [2, 3]]

    def test_more_workers_than_layers(self):
        assignment = partition_layers([5, 5], 4)
        flat = [i for a in assignment for i in a]
        assert sorted(flat) == [0, 1]

    def test_paper_example_resnet(self):
        # 161 layers over 128 GPUs: first GPUs get 2 layers, rest get 1.
        assignment = partition_layers([1] * 161, 128)
        counts = [len(a) for a in assignment]
        assert sum(counts) == 161
        assert set(counts) == {1, 2}
        assert counts[0] == 2  # "The first GPU calculates 1 to 2 layers"

    @given(
        sizes=st.lists(st.integers(1, 1000), min_size=1, max_size=200),
        parts=st.integers(1, 64),
    )
    def test_every_layer_assigned_once(self, sizes, parts):
        assignment = partition_layers(sizes, parts)
        flat = sorted(i for a in assignment for i in a)
        assert flat == list(range(len(sizes)))

    @given(
        sizes=st.lists(st.integers(1, 1000), min_size=1, max_size=100),
        parts=st.integers(1, 16),
    )
    def test_balanced_every_layer_assigned_once(self, sizes, parts):
        assignment = partition_layers_balanced(sizes, parts)
        flat = sorted(i for a in assignment for i in a)
        assert flat == list(range(len(sizes)))

    # PTO's layer split, also over ResNet-50's 161 skewed tensors (a 2M
    # fc weight beside 128-element batch-norm vectors).
    @pytest.mark.parametrize(
        ("sizes", "parts"),
        [
            ([1000, 1, 1, 1, 1000, 1, 1, 1], 2),
            (RESNET50_SIZES, 8),
            (RESNET50_SIZES, 32),
            (RESNET50_SIZES, 128),
        ],
        ids=["toy", "resnet50-8", "resnet50-32", "resnet50-128"],
    )
    def test_balanced_is_no_worse_than_contiguous(self, sizes, parts):
        contiguous = partition_layers(sizes, parts)
        balanced = partition_layers_balanced(sizes, parts)
        load = lambda a: max(sum(sizes[i] for i in w) for w in a)  # noqa: E731
        assert load(balanced) <= load(contiguous)


class TestFlatten:
    @given(
        shapes=st.lists(
            st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=0, max_size=6
        )
    )
    @settings(max_examples=50)
    def test_roundtrip(self, shapes):
        rng = np.random.default_rng(0)
        tensors = [rng.normal(size=s) for s in shapes]
        flat, recorded = flatten_tensors(tensors)
        restored = unflatten_tensors(flat, recorded)
        assert len(restored) == len(tensors)
        for original, back in zip(tensors, restored):
            np.testing.assert_array_equal(original, back)

    def test_unflatten_size_mismatch(self):
        with pytest.raises(ValueError):
            unflatten_tensors(np.zeros(5), [(2, 2)])

    def test_reassemble(self):
        chunks = [np.array([1.0, 2.0]), np.array([3.0])]
        np.testing.assert_array_equal(reassemble(chunks), [1.0, 2.0, 3.0])

    def test_reassemble_empty(self):
        assert reassemble([]).size == 0
