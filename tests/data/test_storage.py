"""Storage tiers: payload fidelity + virtual-time charging."""

import pytest

from repro.cluster.cloud_presets import ALIYUN_GN10X, AWS_P3_16XLARGE, TENCENT_18XLARGE320
from repro.data.storage import LocalDiskStore, MemoryStore, NfsStore, StorageProfile
from repro.utils.clock import VirtualClock


class TestDictStores:
    @pytest.mark.parametrize("store_cls", [NfsStore, LocalDiskStore, MemoryStore])
    def test_roundtrip(self, store_cls):
        store = store_cls()
        clock = VirtualClock()
        store.write("k", b"payload", clock)
        assert store.read("k", clock) == b"payload"
        assert store.contains("k")

    def test_missing_key(self):
        with pytest.raises(KeyError):
            NfsStore().read("nope", VirtualClock())

    @pytest.mark.parametrize(
        "tier",
        [None, AWS_P3_16XLARGE.nfs, ALIYUN_GN10X.nfs, TENCENT_18XLARGE320.nfs],
        ids=["default", "aws", "aliyun", "tencent"],
    )
    def test_read_charges_latency_plus_bandwidth(self, tier):
        store = NfsStore() if tier is None else NfsStore(tier)
        clock = VirtualClock()
        store.write("k", b"x" * 1_000_000, clock)
        before = clock.now
        store.read("k", clock)
        elapsed = clock.now - before
        expected = store.tier.latency + 1_000_000 / store.tier.bandwidth
        assert elapsed == pytest.approx(expected)

    def test_zero_bytes_are_free_and_negative_bytes_rejected(self):
        profile = StorageProfile(latency=1e-3, bandwidth=1e9)
        assert profile.time(0) == 0.0
        with pytest.raises(ValueError):
            profile.time(-1)

    def test_clock_categories(self):
        store = MemoryStore()
        clock = VirtualClock()
        store.write("k", b"abc", clock)
        store.read("k", clock)
        assert clock.elapsed("memory.read") > 0
        assert clock.elapsed("memory.write") > 0

    def test_nfs_slower_than_memory(self):
        nfs, mem = NfsStore(), MemoryStore()
        c1, c2 = VirtualClock(), VirtualClock()
        payload = b"x" * 100_000
        nfs.write("k", payload, VirtualClock())
        mem.write("k", payload, VirtualClock())
        nfs.read("k", c1)
        mem.read("k", c2)
        assert c1.now > 20 * c2.now

    def test_nbytes(self):
        store = MemoryStore()
        store.write("a", b"12345", VirtualClock())
        store.write("b", b"123", VirtualClock())
        assert store.nbytes() == 8
        assert len(store) == 2


class TestMemoryCapacity:
    def test_over_capacity_raises(self):
        store = MemoryStore(capacity_bytes=10)
        clock = VirtualClock()
        store.write("a", b"12345", clock)
        with pytest.raises(MemoryError, match="shard the dataset"):
            store.write("b", b"1234567", clock)

    def test_overwrite_within_capacity_allowed(self):
        store = MemoryStore(capacity_bytes=10)
        clock = VirtualClock()
        store.write("a", b"12345678", clock)
        store.write("a", b"87654321", clock)  # same key, no growth check
        assert store.read("a", clock) == b"87654321"
