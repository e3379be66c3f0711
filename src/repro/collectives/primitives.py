"""Basic collective primitives (broadcast, gather, scatter).

All functions are pure: inputs are never mutated, outputs are fresh
arrays — except :func:`broadcast_views`, which hands every rank a
read-only view of one aggregate.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.utils.partition import chunk_bounds


def broadcast(tensor: np.ndarray, world_size: int) -> list[np.ndarray]:
    """Give every worker a copy of ``tensor``."""
    if world_size < 1:
        raise ValueError(f"world_size must be >= 1, got {world_size}")
    arr = np.asarray(tensor)
    return [arr.copy() for _ in range(world_size)]


def broadcast_views(tensor: np.ndarray, world_size: int) -> list[np.ndarray]:
    """Zero-copy broadcast: every worker gets a *view* of one aggregate.

    The hot-path replacement for ``W`` dense ``full.copy()`` outputs per
    aggregation round: all correct schemes produce identical per-rank
    results anyway, so the replicated outputs share one buffer.  The
    views are marked read-only — an in-place edit (which would silently
    corrupt every rank's output) raises instead of corrupting.
    """
    if world_size < 1:
        raise ValueError(f"world_size must be >= 1, got {world_size}")
    arr = np.asarray(tensor)
    views = [arr.view() for _ in range(world_size)]
    for view in views:
        view.flags.writeable = False
    return views


def gather(tensors: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Collect every worker's tensor at a (virtual) root, in rank order."""
    if len(tensors) == 0:
        raise ValueError("gather: empty worker group")
    return [np.asarray(t).copy() for t in tensors]


def scatter(tensor: np.ndarray, world_size: int) -> list[np.ndarray]:
    """Split ``tensor`` into ``world_size`` near-equal contiguous chunks."""
    arr = np.asarray(tensor)
    if arr.ndim != 1:
        raise ValueError(f"scatter: tensor must be 1-D, got shape {arr.shape}")
    return [arr[start:end].copy() for start, end in chunk_bounds(arr.size, world_size)]


__all__ = [
    "broadcast",
    "broadcast_views",
    "gather",
    "scatter",
]
