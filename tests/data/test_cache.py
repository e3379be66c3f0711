"""The multi-level DataCache (paper §4.1, Fig. 5)."""

import numpy as np
import pytest

from repro.data.cache import CacheLevel, DataCache
from repro.data.dataset import SyntheticImageDataset
from repro.data.storage import LocalDiskStore, MemoryStore
from repro.utils.clock import VirtualClock
from repro.utils.seeding import new_rng


@pytest.fixture
def dataset():
    return SyntheticImageDataset(12, resolution=16, num_classes=3, seed=0)


@pytest.fixture
def cache(dataset):
    return DataCache(dataset)


class TestReadPath:
    def test_first_read_hits_nfs(self, cache, rng):
        outcome = cache.read(0, VirtualClock(), rng)
        assert outcome.level is CacheLevel.NFS
        assert outcome.pixels.shape == (16, 16, 3)

    def test_second_read_hits_memory(self, cache, rng):
        clock = VirtualClock()
        cache.read(0, clock, rng)
        outcome = cache.read(0, clock, rng)
        assert outcome.level is CacheLevel.MEMORY

    def test_memory_hit_is_much_cheaper(self, cache, rng):
        clock = VirtualClock()
        first = cache.read(0, clock, rng)
        second = cache.read(0, clock, rng)
        assert second.io_seconds < first.io_seconds / 10

    def test_memory_hit_returns_same_pixels_pre_augment(self, dataset, rng):
        # Disable augmentation variability by comparing the *decoded*
        # pixels path: read twice with identical augment rngs.
        cache = DataCache(dataset)
        out1 = cache.read(0, VirtualClock(), new_rng(9))
        out2 = cache.read(0, VirtualClock(), new_rng(9))
        np.testing.assert_array_equal(out1.pixels, out2.pixels)

    def test_local_disk_serves_second_run(self, dataset, rng):
        # First run populates the local FS cache; a new cache instance
        # (same disk, fresh memory) models "second run" for tuning.
        disk = LocalDiskStore()
        run1 = DataCache(dataset, local_disk=disk)
        run1.read(0, VirtualClock(), rng)
        run2 = DataCache(dataset, local_disk=disk, memory=MemoryStore())
        outcome = run2.read(0, VirtualClock(), rng)
        assert outcome.level is CacheLevel.LOCAL_DISK

    def test_disabled_memory_keeps_hitting_disk(self, dataset, rng):
        cache = DataCache(dataset, enable_memory=False)
        clock = VirtualClock()
        cache.read(0, clock, rng)
        outcome = cache.read(0, clock, rng)
        assert outcome.level is CacheLevel.LOCAL_DISK

    def test_fully_naive_path_rereads_nfs(self, dataset, rng):
        cache = DataCache(dataset, enable_memory=False, enable_local_disk=False)
        clock = VirtualClock()
        cache.read(0, clock, rng)
        outcome = cache.read(0, clock, rng)
        assert outcome.level is CacheLevel.NFS

    def test_augment_resolution_override(self, cache, rng):
        outcome = cache.read(0, VirtualClock(), rng, out_resolution=8)
        assert outcome.pixels.shape == (8, 8, 3)


class TestSharding:
    def test_owns_modulo(self, dataset):
        cache = DataCache(dataset, node=1, num_nodes=3)
        assert cache.owns(1) and cache.owns(4)
        assert not cache.owns(0)

    def test_foreign_samples_not_memory_cached(self, dataset, rng):
        cache = DataCache(dataset, node=0, num_nodes=2)
        clock = VirtualClock()
        cache.read(1, clock, rng)  # owned by node 1
        outcome = cache.read(1, clock, rng)
        assert outcome.level is not CacheLevel.MEMORY

    def test_warm_memory_fraction(self, dataset, rng):
        cache = DataCache(dataset, node=0, num_nodes=2)
        clock = VirtualClock()
        keys = [dataset.key(i) for i in range(len(dataset))]
        assert not any(cache.memory.contains(key) for key in keys)
        for i in range(len(dataset)):
            cache.read(i, clock, rng)
        assert [cache.memory.contains(key) for key in keys] == [
            cache.owns(i) for i in range(len(dataset))
        ]

    def test_node_validation(self, dataset):
        with pytest.raises(ValueError):
            DataCache(dataset, node=3, num_nodes=2)


class TestStats:
    def test_counters(self, cache, rng):
        clock = VirtualClock()
        cache.read(0, clock, rng)
        cache.read(0, clock, rng)
        cache.read(1, clock, rng)
        assert cache.stats.nfs_reads == 2
        assert cache.stats.memory_hits == 1
        assert cache.stats.disk_hits == 0
        assert cache.stats.decoded_samples == 2

    def test_bytes_from_nfs(self, cache, dataset, rng):
        cache.read(0, VirtualClock(), rng)
        assert cache.stats.bytes_from_nfs == dataset.encoded_sample_bytes
