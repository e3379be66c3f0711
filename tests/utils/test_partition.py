"""Partitioning invariants — these underpin every collective."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.profiles import resnet50_profile
from repro.utils.partition import (
    chunk_bounds,
    chunk_sizes,
    partition_layers,
    partition_layers_balanced,
    round_robin_shards,
)
from tests.utils.flatten_oracle import flatten_tensors, unflatten_tensors

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

    @given(total=st.integers(0, 5_000), parts=st.integers(1, 32))
    def test_bound_widths_are_the_chunk_sizes(self, total, parts):
        widths = [end - start for start, end in chunk_bounds(total, parts)]
        assert widths == chunk_sizes(total, parts)


class TestRoundRobinShards:
    @given(n=st.integers(1, 300), world=st.integers(1, 16))
    def test_every_sample_lands_in_exactly_one_shard(self, n, world):
        if n < world:
            return
        x = np.arange(n, dtype=np.float64)[:, None]
        y = np.arange(n)
        shards = round_robin_shards(x, y, world)
        assert len(shards) == world
        ids = np.concatenate([sy for _, sy in shards])
        np.testing.assert_array_equal(np.sort(ids), y)
        # Sizes are the near-equal split, largest first.
        assert [len(sy) for _, sy in shards] == chunk_sizes(n, world)

    def test_rank_r_takes_every_world_th_sample_from_r(self):
        x = np.arange(10)[:, None] * 1.0
        y = np.arange(10)
        shards = round_robin_shards(x, y, 3)
        np.testing.assert_array_equal(shards[1][1], [1, 4, 7])
        np.testing.assert_array_equal(shards[1][0][:, 0], [1.0, 4.0, 7.0])

    def test_features_stay_with_their_labels(self, rng):
        x = rng.normal(size=(40, 3))
        y = rng.integers(0, 5, size=40)
        for sx, sy in round_robin_shards(x, y, 4):
            rows = [np.flatnonzero((x == row).all(axis=1))[0] for row in sx]
            np.testing.assert_array_equal(y[rows], sy)

    def test_sorted_labels_give_every_shard_the_class_mix(self):
        # Spiral data arrives class by class; round-robin still balances.
        y = np.repeat(np.arange(4), 25)
        x = np.zeros((100, 2))
        for _, sy in round_robin_shards(x, y, 5):
            assert np.bincount(sy, minlength=4).tolist() == [5, 5, 5, 5]

    @pytest.mark.parametrize(
        ("n_x", "n_y", "world", "message"),
        [
            (8, 8, 0, "world_size"),
            (8, 7, 2, "lengths differ"),
            (3, 3, 4, "too small"),
        ],
        ids=["no-workers", "length-mismatch", "more-workers-than-samples"],
    )
    def test_rejects(self, n_x, n_y, world, message):
        with pytest.raises(ValueError, match=message):
            round_robin_shards(np.zeros((n_x, 2)), np.zeros(n_y), world)


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
