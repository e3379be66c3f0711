"""Data loader with prefetch pipelining over the DataCache.

"With pipelining between data reading and GPU computations, the time
cost of data reading from the memory cache can be almost fully
overlapped by GPU computations" (§4.1).  The loader models that overlap:
per iteration, the *visible* input-pipeline time is what exceeds the GPU
compute time (plus a small straggler residue), while the naive
un-pipelined path pays the full cost — which is how Fig. 9's two bars
arise from one code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.data.cache import CacheLevel, DataCache
from repro.utils.clock import VirtualClock
from repro.utils.seeding import RandomState, new_rng


@dataclass
class EpochTimings:
    """Virtual-time accounting for one epoch of data loading."""

    epoch: int
    iterations: int = 0
    io_seconds: float = 0.0  # storage reads + decode
    preprocess_seconds: float = 0.0  # augmentation
    visible_seconds: float = 0.0  # what the training loop actually waits
    level_counts: dict[str, int] = field(default_factory=dict)


class CachedDataLoader:
    """Batched loader over a :class:`DataCache` partition.

    Parameters
    ----------
    cache:
        The node's DataCache.
    batch_size:
        Samples per iteration.
    partition:
        Sample indices this worker is responsible for (node-sharded so
        cache ownership lines up with access; see
        :meth:`DataCache.owns`).
    decode_workers:
        Parallel input-pipeline workers dividing the decode cost (the
        paper's baselines vary here: Fig. 9's single-GPU measurement is
        effectively serial, the 128-GPU system uses a worker pool).
    pipelined:
        When True, pipeline time hides behind ``gpu_seconds`` up to a
        straggler residue; when False the full cost is visible (the
        "Naive" bar of Fig. 9).
    straggler_fraction:
        Residual fraction of pipeline time that stays visible even when
        fully overlapped (queue jitter).
    """

    def __init__(
        self,
        cache: DataCache,
        batch_size: int,
        *,
        partition: np.ndarray | None = None,
        decode_workers: int = 1,
        pipelined: bool = True,
        straggler_fraction: float = 0.1,
        seed: int = 0,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if decode_workers < 1:
            raise ValueError(f"decode_workers must be >= 1, got {decode_workers}")
        if not 0 <= straggler_fraction <= 1:
            raise ValueError(
                f"straggler_fraction must be in [0, 1], got {straggler_fraction}"
            )
        self.cache = cache
        self.batch_size = batch_size
        if partition is None:
            partition = np.array(
                [i for i in range(len(cache.dataset)) if cache.owns(i)], dtype=np.int64
            )
        self.partition = np.asarray(partition, dtype=np.int64)
        if self.partition.size == 0:
            raise ValueError("empty partition")
        self.decode_workers = decode_workers
        self.pipelined = pipelined
        self.straggler_fraction = straggler_fraction
        self._rng = new_rng(seed)

    def iterations_per_epoch(self) -> int:
        return max(1, self.partition.size // self.batch_size)

    def epoch_batches(
        self,
        epoch: int,
        *,
        out_resolution: int | None = None,
        rng: RandomState | None = None,
    ) -> Iterator[tuple[np.ndarray, np.ndarray, float, float]]:
        """Yield ``(batch, labels, io_seconds, preprocess_seconds)`` per iteration."""
        rng = rng if rng is not None else self._rng
        order = self.partition.copy()
        rng.shuffle(order)
        n_iter = self.iterations_per_epoch()
        for it in range(n_iter):
            indices = order[it * self.batch_size : (it + 1) * self.batch_size]
            clock = VirtualClock()
            samples = []
            labels = []
            io_s = 0.0
            pre_s = 0.0
            for index in indices:
                outcome = self.cache.read(
                    int(index), clock, rng, out_resolution=out_resolution
                )
                samples.append(outcome.pixels)
                labels.append(self.cache.dataset.label(int(index)))
                io_s += outcome.io_seconds
                pre_s += outcome.preprocess_seconds
            # Parallel worker pool divides decode/augment wall time.
            io_s /= self.decode_workers
            pre_s /= self.decode_workers
            yield np.stack(samples), np.asarray(labels), io_s, pre_s

    def run_epoch(
        self,
        epoch: int,
        *,
        gpu_seconds_per_iteration: float = 0.0,
        out_resolution: int | None = None,
        rng: RandomState | None = None,
    ) -> EpochTimings:
        """Stream a full epoch, returning the visible-time accounting."""
        timings = EpochTimings(epoch=epoch)
        for _, _, io_s, pre_s in self.epoch_batches(
            epoch, out_resolution=out_resolution, rng=rng
        ):
            timings.iterations += 1
            timings.io_seconds += io_s
            timings.preprocess_seconds += pre_s
            pipeline = io_s + pre_s
            if self.pipelined:
                hidden = min(pipeline, gpu_seconds_per_iteration)
                visible = (pipeline - hidden) + self.straggler_fraction * hidden
            else:
                visible = pipeline
            timings.visible_seconds += visible
        # Count cache levels from the cache's stats snapshot.
        timings.level_counts = {
            CacheLevel.MEMORY.value: self.cache.stats.memory_hits,
            CacheLevel.LOCAL_DISK.value: self.cache.stats.disk_hits,
            CacheLevel.NFS.value: self.cache.stats.nfs_reads,
        }
        return timings


__all__ = ["CachedDataLoader", "EpochTimings"]
