"""The multi-level DataCache (paper §4.1, Fig. 5).

Read path for one sample:

* **memory cache hit** (second or higher epochs) — return the cached
  pre-processed pixels;
* **local-disk hit** (second or higher *runs*) — read the encoded bytes
  from the local FS cache, decode, store in memory;
* **miss** (first epoch of the first run) — read from NFS, populate the
  local FS cache, decode, store the pre-processed result in memory.

Augmentation is *not* cached (it must be resampled every epoch); decode
is, which is the expensive CPU part.  The memory footprint is bounded by
sharding the dataset across nodes: node ``i`` of ``m`` keeps samples
with ``index % m == i`` and fetches the rest through its shard owner —
the paper's "the full data set is split into multiple parts that are
separately stored on multiple nodes".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.data.dataset import SyntheticImageDataset
from repro.data.preprocess import (
    PreprocessModel,
    augment_image,
    decode_image,
)
from repro.data.storage import LocalDiskStore, MemoryStore, NfsStore
from repro.utils.clock import VirtualClock
from repro.utils.seeding import RandomState


class CacheLevel(Enum):
    """Where a read was satisfied."""

    MEMORY = "memory"
    LOCAL_DISK = "local_disk"
    NFS = "nfs"


@dataclass
class CacheStats:
    """Hit counters per level plus byte counters."""

    memory_hits: int = 0
    disk_hits: int = 0
    nfs_reads: int = 0
    decoded_samples: int = 0
    bytes_from_nfs: int = 0

    def record(self, level: CacheLevel, nbytes: int = 0) -> None:
        if level is CacheLevel.MEMORY:
            self.memory_hits += 1
        elif level is CacheLevel.LOCAL_DISK:
            self.disk_hits += 1
        else:
            self.nfs_reads += 1
            self.bytes_from_nfs += nbytes


@dataclass
class ReadOutcome:
    """One sample read: the pixels, where they came from, and the cost."""

    pixels: np.ndarray
    level: CacheLevel
    io_seconds: float
    preprocess_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.io_seconds + self.preprocess_seconds


@dataclass
class DataCache:
    """Per-node multi-level cache over a :class:`SyntheticImageDataset`.

    Parameters
    ----------
    dataset:
        The backing dataset; its encoded payloads are materialised into
        the NFS store on construction (free — they "already exist").
    nfs / local_disk / memory:
        Storage tiers (defaults model the Tencent testbed).
    node / num_nodes:
        This node's memory-shard assignment.  ``num_nodes == 1`` keeps
        everything locally.
    enable_local_disk / enable_memory:
        Toggles for the ablation in Fig. 9 ("Naive" disables both).
    preprocess:
        CPU cost model for decode/augment.
    """

    dataset: SyntheticImageDataset
    nfs: NfsStore = field(default_factory=NfsStore)
    local_disk: LocalDiskStore = field(default_factory=LocalDiskStore)
    memory: MemoryStore = field(default_factory=MemoryStore)
    node: int = 0
    num_nodes: int = 1
    enable_local_disk: bool = True
    enable_memory: bool = True
    preprocess: PreprocessModel = field(default_factory=PreprocessModel)
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if not 0 <= self.node < self.num_nodes:
            raise ValueError(
                f"node {self.node} out of range for {self.num_nodes} nodes"
            )
        # Materialise the dataset into the (virtual) NFS without charging
        # time — the data pre-exists the training job.
        setup_clock = VirtualClock()
        for index in range(len(self.dataset)):
            self.nfs.write(self.dataset.key(index), self.dataset.encoded(index), setup_clock)

    # ------------------------------------------------------------------
    def owns(self, index: int) -> bool:
        """Whether this node's memory shard holds ``index`` (paper §4.1)."""
        return index % self.num_nodes == self.node

    def read(self, index: int, clock: VirtualClock, rng: RandomState, *,
             out_resolution: int | None = None) -> ReadOutcome:
        """Read + pre-process one sample through the cache hierarchy."""
        key = self.dataset.key(index)
        out_resolution = out_resolution or self.dataset.resolution
        pixel_bytes = self.dataset.resolution * self.dataset.resolution * 3

        start = clock.now
        if self.enable_memory and self.memory.contains(key):
            payload = self.memory.read(key, clock)
            pixels = np.frombuffer(payload, dtype=np.uint8).reshape(
                self.dataset.resolution, self.dataset.resolution, 3
            )
            level = CacheLevel.MEMORY
        else:
            if self.enable_local_disk and self.local_disk.contains(key):
                encoded = self.local_disk.read(key, clock)
                level = CacheLevel.LOCAL_DISK
            else:
                encoded = self.nfs.read(key, clock)
                level = CacheLevel.NFS
                if self.enable_local_disk:
                    self.local_disk.write(key, encoded, clock)
            pixels = decode_image(encoded)
            clock.advance(self.preprocess.decode_time(pixel_bytes), category="decode")
            self.stats.decoded_samples += 1
            if self.enable_memory and self.owns(index):
                self.memory.write(key, pixels.tobytes(), clock)
        io_seconds = clock.now - start
        self.stats.record(level, nbytes=self.dataset.encoded_sample_bytes)

        # Augmentation happens on every epoch regardless of caching.
        aug_start = clock.now
        out = augment_image(pixels, out_resolution, rng)
        clock.advance(
            self.preprocess.augment_time(out_resolution * out_resolution * 3 * 4),
            category="augment",
        )
        return ReadOutcome(
            pixels=out,
            level=level,
            io_seconds=io_seconds,
            preprocess_seconds=clock.now - aug_start,
        )


__all__ = ["CacheLevel", "CacheStats", "ReadOutcome", "DataCache"]
