"""Simulated storage tiers with virtual-time accounting.

Each backend stores real byte payloads in memory (so cache correctness
is testable end to end) and charges a :class:`~repro.utils.clock.VirtualClock`
for every access according to its latency/bandwidth profile.  The
profiles of the NFS tier come from :mod:`repro.cluster.cloud_presets`
(paper Table 1 storage column).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.cluster.cloud_presets import CFS_TIER
from repro.utils.clock import VirtualClock


class StorageBackend(abc.ABC):
    """A keyed byte store that charges virtual time per operation."""

    name: str = "storage"

    @abc.abstractmethod
    def read(self, key: str, clock: VirtualClock) -> bytes:
        """Read a payload, charging the clock.  Raises ``KeyError`` if absent."""

    @abc.abstractmethod
    def write(self, key: str, payload: bytes, clock: VirtualClock) -> None:
        """Store a payload, charging the clock."""

    @abc.abstractmethod
    def contains(self, key: str) -> bool:
        ...

    @abc.abstractmethod
    def nbytes(self) -> int:
        """Total stored bytes (for capacity accounting)."""


@dataclass(frozen=True)
class StorageProfile:
    """Latency/bandwidth pair for one direction of a tier."""

    latency: float  # seconds per request
    bandwidth: float  # bytes per second

    def time(self, nbytes: int) -> float:
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        if nbytes == 0:
            return 0.0
        return self.latency + nbytes / self.bandwidth


class _DictStore(StorageBackend):
    """Shared dict-backed implementation for all tiers."""

    def __init__(self, read_profile: StorageProfile, write_profile: StorageProfile) -> None:
        self._data: dict[str, bytes] = {}
        self._read = read_profile
        self._write = write_profile

    def read(self, key: str, clock: VirtualClock) -> bytes:
        if key not in self._data:
            raise KeyError(f"{self.name}: no such key {key!r}")
        payload = self._data[key]
        clock.advance(self._read.time(len(payload)), category=f"{self.name}.read")
        return payload

    def write(self, key: str, payload: bytes, clock: VirtualClock) -> None:
        clock.advance(self._write.time(len(payload)), category=f"{self.name}.write")
        self._data[key] = bytes(payload)

    def contains(self, key: str) -> bool:
        return key in self._data

    def nbytes(self) -> int:
        return sum(len(v) for v in self._data.values())

    def keys(self):
        return self._data.keys()

    def __len__(self) -> int:
        return len(self._data)


class NfsStore(_DictStore):
    """The networked file system tier (CFS on the paper's testbed).

    Read performance "may be limited by the network bandwidth and
    latency" (§4.1); per-request latency dominates small-file reads,
    which is why the loader batches requests.
    """

    name = "nfs"

    def __init__(self) -> None:
        profile = StorageProfile(CFS_TIER.latency, CFS_TIER.bandwidth)
        super().__init__(read_profile=profile, write_profile=profile)


class LocalDiskStore(_DictStore):
    """The instance-local SSD / file-system cache tier: 100 µs per
    request, 2 GB/s reads and 1 GB/s writes."""

    name = "local_disk"

    def __init__(self) -> None:
        super().__init__(
            read_profile=StorageProfile(1e-4, 2.0e9),
            write_profile=StorageProfile(1e-4, 1.0e9),
        )


class MemoryStore(_DictStore):
    """The in-memory key-value store of pre-processed samples.

    "we further cache the pre-processed data into memory using the
    key-value store, where the key is the sample index and the value is
    the pre-processed data" (§4.1).  2 µs per request at 10 GB/s.
    """

    name = "memory"

    def __init__(self) -> None:
        profile = StorageProfile(2e-6, 10e9)
        super().__init__(read_profile=profile, write_profile=profile)


__all__ = [
    "StorageBackend",
    "StorageProfile",
    "NfsStore",
    "LocalDiskStore",
    "MemoryStore",
]
