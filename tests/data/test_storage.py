"""Storage tiers: payload fidelity + virtual-time charging."""

import pytest

from repro.cluster.cloud_presets import CFS_TIER
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
        "store_cls, latency, read_bandwidth, write_bandwidth",
        [(LocalDiskStore, 1e-4, 2.0e9, 1.0e9), (MemoryStore, 2e-6, 10e9, 10e9)],
    )
    def test_each_tier_charges_its_own_profile(self, store_cls, latency, read_bandwidth,
                                               write_bandwidth):
        store, clock = store_cls(), VirtualClock()
        store.write("k", b"x" * 1_000_000, clock)
        assert clock.now == pytest.approx(latency + 1_000_000 / write_bandwidth)
        store.read("k", clock)
        assert clock.by_category[f"{store.name}.read"] == pytest.approx(
            latency + 1_000_000 / read_bandwidth
        )

    def test_read_charges_latency_plus_bandwidth(self):
        store = NfsStore()
        clock = VirtualClock()
        store.write("k", b"x" * 1_000_000, clock)
        before = clock.now
        store.read("k", clock)
        elapsed = clock.now - before
        expected = CFS_TIER.latency + 1_000_000 / CFS_TIER.bandwidth
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
        assert clock.by_category["memory.read"] > 0
        assert clock.by_category["memory.write"] > 0

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
