"""CachedDataLoader: batching + pipeline overlap accounting."""

import numpy as np
import pytest

from repro.data.cache import DataCache
from repro.data.dataset import SyntheticImageDataset
from repro.data.loader import CachedDataLoader
from repro.perf.calibration import CALIBRATION
from repro.utils.clock import VirtualClock
from repro.utils.seeding import new_rng


@pytest.fixture
def cache():
    return DataCache(SyntheticImageDataset(48, resolution=16, num_classes=4, seed=0))


class TestBatches:
    def test_batch_shapes(self, cache):
        loader = CachedDataLoader(cache, batch_size=8, seed=0)
        batch, labels, io_s, pre_s = next(loader.epoch_batches(0))
        assert batch.shape == (8, 16, 16, 3)
        assert labels.shape == (8,)
        assert io_s > 0 and pre_s > 0

    def test_iterations_per_epoch(self, cache):
        loader = CachedDataLoader(cache, batch_size=8)
        assert loader.iterations_per_epoch() == 6

    def test_validation(self, cache):
        with pytest.raises(ValueError):
            CachedDataLoader(cache, batch_size=0)
        # A node that owns no sample has nothing to load.
        lone = SyntheticImageDataset(1, resolution=8, num_classes=2, seed=0)
        with pytest.raises(ValueError, match="empty partition"):
            CachedDataLoader(DataCache(lone, node=1, num_nodes=2), batch_size=4)
        with pytest.raises(ValueError):
            CachedDataLoader(cache, batch_size=4, decode_workers=0)

    def test_out_resolution_reaches_the_batch(self, cache):
        loader = CachedDataLoader(cache, batch_size=4, seed=0)
        batch, _, _, _ = next(loader.epoch_batches(0, out_resolution=8))
        assert batch.shape == (4, 8, 8, 3)


def _label_order(loader, epoch=0, rng=None):
    return np.concatenate([labels for _, labels, _, _ in loader.epoch_batches(epoch, rng=rng)])


class TestOrder:
    def test_same_seed_same_batches(self, cache):
        a = list(CachedDataLoader(cache, batch_size=8, seed=3).epoch_batches(0))
        b = list(CachedDataLoader(cache, batch_size=8, seed=3).epoch_batches(0))
        for (xa, ya, _, _), (xb, yb, _, _) in zip(a, b, strict=True):
            np.testing.assert_array_equal(xa, xb)
            np.testing.assert_array_equal(ya, yb)

    def test_seed_changes_the_order(self, cache):
        a = _label_order(CachedDataLoader(cache, batch_size=8, seed=3))
        b = _label_order(CachedDataLoader(cache, batch_size=8, seed=4))
        assert not np.array_equal(a, b)
        # Same samples, different order: the label multiset is unchanged.
        np.testing.assert_array_equal(np.sort(a), np.sort(b))

    def test_successive_epochs_reshuffle(self, cache):
        loader = CachedDataLoader(cache, batch_size=8, seed=3)
        assert not np.array_equal(_label_order(loader, 0), _label_order(loader, 1))

    def test_an_explicit_rng_overrides_the_loader_seed(self, cache):
        a = _label_order(CachedDataLoader(cache, batch_size=8, seed=3), rng=new_rng(9))
        b = _label_order(CachedDataLoader(cache, batch_size=8, seed=4), rng=new_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_an_epoch_reads_each_partition_sample_once(self, cache):
        loader = CachedDataLoader(cache, batch_size=8, seed=0)
        loader.run_epoch(0, rng=new_rng(0))
        # 48 distinct NFS reads and no memory hit: no sample came twice.
        assert cache.stats.nfs_reads == 48
        assert cache.stats.memory_hits == 0
        assert cache.stats.decoded_samples == 48


class TestNodePartitions:
    """Each node's loader reads the shard its own DataCache keeps (§4.1)."""

    @pytest.mark.parametrize("num_nodes", [1, 2, 3, 5])
    def test_default_partitions_are_the_owned_shards(self, num_nodes):
        dataset = SyntheticImageDataset(48, resolution=8, num_classes=4, seed=0)
        parts = []
        for node in range(num_nodes):
            cache = DataCache(dataset, node=node, num_nodes=num_nodes)
            loader = CachedDataLoader(cache, batch_size=4)
            assert all(cache.owns(int(i)) for i in loader.partition)
            parts.append(loader.partition)
        merged = np.concatenate(parts)
        # Disjoint and together the whole dataset.
        np.testing.assert_array_equal(np.sort(merged), np.arange(48))
        assert max(p.size for p in parts) - min(p.size for p in parts) <= 1

    def test_the_second_epoch_of_an_owned_shard_is_all_memory_hits(self):
        dataset = SyntheticImageDataset(24, resolution=8, num_classes=4, seed=0)
        cache = DataCache(dataset, node=1, num_nodes=2)
        loader = CachedDataLoader(cache, batch_size=4, seed=0)
        loader.run_epoch(0)
        owned = [i for i in range(len(dataset)) if cache.owns(i)]
        assert all(cache.memory.contains(dataset.key(i)) for i in owned)
        before = cache.stats.memory_hits
        loader.run_epoch(1)
        assert cache.stats.memory_hits - before == loader.partition.size
        assert cache.stats.nfs_reads == loader.partition.size

    def test_a_foreign_shard_is_served_from_local_disk_not_memory(self):
        dataset = SyntheticImageDataset(24, resolution=8, num_classes=4, seed=0)
        cache = DataCache(dataset, node=0, num_nodes=2)
        foreign = [i for i in range(len(dataset)) if not cache.owns(i)]
        rng = new_rng(0)
        for _ in range(2):
            for index in foreign:
                cache.read(index, VirtualClock(), rng)
        assert cache.stats.memory_hits == 0
        assert cache.stats.disk_hits == len(foreign)


class TestEpochTimings:
    def test_second_epoch_io_collapses(self, cache):
        # Fig. 9 / §4.1: "the I/O time is reduced over 10 times".
        loader = CachedDataLoader(cache, batch_size=8, pipelined=False, seed=0)
        rng = new_rng(1)
        epoch1 = loader.run_epoch(0, rng=rng)
        epoch2 = loader.run_epoch(1, rng=rng)
        assert epoch2.io_seconds < epoch1.io_seconds / 10

    def test_pipelining_hides_cost(self, cache):
        rng = new_rng(1)
        gpu_time = 1.0  # plenty of compute to hide behind
        pipelined = CachedDataLoader(cache, batch_size=8, pipelined=True, seed=0)
        visible_piped = pipelined.run_epoch(
            0, gpu_seconds_per_iteration=gpu_time, rng=rng
        ).visible_seconds
        naive = CachedDataLoader(
            DataCache(cache.dataset), batch_size=8, pipelined=False, seed=0
        )
        visible_naive = naive.run_epoch(
            0, gpu_seconds_per_iteration=gpu_time, rng=new_rng(1)
        ).visible_seconds
        assert visible_piped < visible_naive / 2

    def test_decode_workers_divide_time(self, cache):
        rng = new_rng(1)
        one = CachedDataLoader(cache, batch_size=8, decode_workers=1, seed=0)
        t1 = one.run_epoch(0, rng=rng)
        four = CachedDataLoader(
            DataCache(cache.dataset), batch_size=8, decode_workers=4, seed=0
        )
        t4 = four.run_epoch(0, rng=new_rng(1))
        assert t4.io_seconds == pytest.approx(t1.io_seconds / 4, rel=0.05)

    def test_level_counts_recorded(self, cache):
        loader = CachedDataLoader(cache, batch_size=8, seed=0)
        timings = loader.run_epoch(0, rng=new_rng(0))
        assert timings.level_counts["nfs"] == 48

    def test_unpipelined_pays_the_whole_pipeline(self, cache):
        loader = CachedDataLoader(cache, batch_size=8, pipelined=False, seed=0)
        timings = loader.run_epoch(0, gpu_seconds_per_iteration=1.0, rng=new_rng(0))
        assert timings.visible_seconds == pytest.approx(
            timings.io_seconds + timings.preprocess_seconds
        )

    def test_no_compute_to_hide_behind_hides_nothing(self, cache):
        loader = CachedDataLoader(cache, batch_size=8, pipelined=True, seed=0)
        timings = loader.run_epoch(0, gpu_seconds_per_iteration=0.0, rng=new_rng(0))
        assert timings.visible_seconds == pytest.approx(
            timings.io_seconds + timings.preprocess_seconds
        )

    def test_fully_hidden_pipeline_leaves_the_straggler_share(self, cache):
        loader = CachedDataLoader(cache, batch_size=8, seed=0)
        timings = loader.run_epoch(0, gpu_seconds_per_iteration=1e6, rng=new_rng(0))
        assert timings.visible_seconds == pytest.approx(
            CALIBRATION.io_straggler_fraction * (timings.io_seconds + timings.preprocess_seconds)
        )
