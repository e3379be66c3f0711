"""Wait-free backpropagation timeline with tensor fusion.

The paper's baseline systems rely on two standard overlapping tricks it
cites explicitly: *wait-free backpropagation* (Zhang et al. 2017; Awan
et al. 2017) — a layer's gradient can be communicated as soon as its
backward pass finishes — and *tensor fusion* (Shi et al. 2019b, 2020) —
small gradients are packed into fusion buffers so each collective pays
its latency once.

This module simulates that pipeline explicitly: layers finish backward
in reverse order, fill fusion buckets, and each bucket's collective is
issued on a single serial communication channel.  The result is the
*visible* (non-overlapped) communication time — the quantity behind the
``dense_overlap_fraction`` calibration constant in the iteration model,
which this simulator lets us derive rather than assume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class FusionBucket:
    """One fused communication buffer."""

    layer_indices: tuple[int, ...]
    nbytes: int
    ready_at: float  # when the last contributing layer's backward ends


@dataclass
class TimelineResult:
    """Outcome of one simulated backward+communication pipeline."""

    buckets: list[FusionBucket]
    backward_end: float  # when backprop finishes
    comm_end: float  # when the last collective finishes
    busy_comm: float  # total time the channel spent transferring

    @property
    def visible_comm(self) -> float:
        """Communication time not hidden behind backward compute."""
        return max(0.0, self.comm_end - self.backward_end)

    @property
    def overlap_ratio(self) -> float:
        """Fraction of communication hidden by compute."""
        if self.busy_comm == 0:
            return 0.0
        return 1.0 - self.visible_comm / self.busy_comm

    @property
    def iteration_span(self) -> float:
        """Backward start to last byte on the wire."""
        return max(self.backward_end, self.comm_end)


def build_buckets(
    layer_bytes: Sequence[int],
    layer_ready: Sequence[float],
    fusion_threshold: int,
) -> list[FusionBucket]:
    """Greedily pack layers (in backward order) into fusion buffers.

    A bucket is flushed once it accumulates ``fusion_threshold`` bytes
    (Horovod's fusion-buffer semantics).  ``layer_ready[i]`` is when
    layer ``i``'s gradient becomes available; a bucket is ready when its
    *last* layer is.
    """
    if fusion_threshold < 1:
        raise ValueError(f"fusion_threshold must be >= 1, got {fusion_threshold}")
    if len(layer_bytes) != len(layer_ready):
        raise ValueError("layer_bytes and layer_ready must align")
    buckets: list[FusionBucket] = []
    pending: list[int] = []
    pending_bytes = 0
    for i, (nbytes, ready) in enumerate(zip(layer_bytes, layer_ready)):
        pending.append(i)
        pending_bytes += int(nbytes)
        if pending_bytes >= fusion_threshold:
            buckets.append(FusionBucket(tuple(pending), pending_bytes, ready))
            pending, pending_bytes = [], 0
    if pending:
        buckets.append(
            FusionBucket(tuple(pending), pending_bytes, layer_ready[len(layer_bytes) - 1])
        )
    return buckets


def simulate_backward_overlap(
    layer_sizes: Sequence[int],
    *,
    backward_time: float,
    comm_time_fn: Callable[[int], float],
    fusion_threshold: int = 64 << 20,
    bytes_per_element: int = 4,
) -> TimelineResult:
    """Simulate wait-free backprop for one iteration.

    Parameters
    ----------
    layer_sizes:
        Per-layer parameter counts in *forward* order (the backward pass
        visits them reversed).
    backward_time:
        Total backward-pass compute time; apportioned to layers by their
        parameter counts (a serviceable proxy for per-layer FLOPs).
    comm_time_fn:
        ``nbytes -> seconds`` for one fused collective (e.g. a closure
        over a :class:`~repro.comm.base.CommScheme` time model).
    fusion_threshold:
        Fusion-buffer size in bytes (Horovod default: 64 MiB).
    """
    if backward_time < 0:
        raise ValueError(f"backward_time must be non-negative, got {backward_time}")
    sizes = [int(s) for s in reversed(list(layer_sizes))]  # backward order
    total = sum(sizes)
    if total == 0:
        raise ValueError("empty model")

    # Layer i's backward finishes after the cumulative size fraction.
    ready_times = list(np.cumsum(sizes) / total * backward_time)
    layer_bytes = [s * bytes_per_element for s in sizes]
    buckets = build_buckets(layer_bytes, ready_times, fusion_threshold)

    # Single serial communication channel, FIFO by readiness.
    channel_free = 0.0
    busy = 0.0
    for bucket in buckets:
        start = max(bucket.ready_at, channel_free)
        duration = comm_time_fn(bucket.nbytes)
        channel_free = start + duration
        busy += duration
    return TimelineResult(
        buckets=buckets,
        backward_end=backward_time,
        comm_end=channel_free,
        busy_comm=busy,
    )


def derive_overlap_fraction(
    layer_sizes: Sequence[int],
    *,
    ffbp_time: float,
    comm_time_fn: Callable[[int], float],
    backward_share: float = 0.6,
    fusion_threshold: int = 64 << 20,
) -> float:
    """The overlap constant the iteration model uses, derived bottom-up.

    Returns the fraction of FF&BP time that hides communication:
    ``(busy_comm - visible_comm) / ffbp_time``.
    """
    result = simulate_backward_overlap(
        layer_sizes,
        backward_time=backward_share * ffbp_time,
        comm_time_fn=comm_time_fn,
        fusion_threshold=fusion_threshold,
    )
    hidden = result.busy_comm - result.visible_comm
    return max(0.0, hidden / ffbp_time)


__all__ = [
    "FusionBucket",
    "TimelineResult",
    "build_buckets",
    "simulate_backward_overlap",
    "derive_overlap_fraction",
]
