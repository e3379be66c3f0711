"""Tensor and layer partitioning helpers.

The hierarchical communication algorithm (Algorithm 2 in the paper)
shards a length-``d`` gradient across the ``n`` GPUs of a node, and the
parallel tensor operator (PTO, §4.2) shards a list of layers across all
``P`` GPUs.  Both need the same "split as evenly as possible" arithmetic,
centralised here so that every subsystem agrees on shard boundaries.

The convention matches NCCL's reduce-scatter: the first ``d % parts``
shards get one extra element.

Tensor fusion lives here too: :class:`FlatLayout`, where each tensor
sits in one fused buffer (the trainer's ``(W, d)`` gradient matrix, one
worker a row; see :mod:`repro.train.trainer`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np


def chunk_sizes(total: int, parts: int) -> list[int]:
    """Sizes of ``parts`` near-equal chunks covering ``total`` elements.

    >>> chunk_sizes(10, 3)
    [4, 3, 3]
    """
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    base, extra = divmod(total, parts)
    return [base + 1 if i < extra else base for i in range(parts)]


def chunk_bounds(total: int, parts: int) -> list[tuple[int, int]]:
    """``(start, end)`` half-open bounds for each of ``parts`` chunks.

    >>> chunk_bounds(10, 3)
    [(0, 4), (4, 7), (7, 10)]
    """
    sizes = chunk_sizes(total, parts)
    bounds: list[tuple[int, int]] = []
    start = 0
    for size in sizes:
        bounds.append((start, start + size))
        start += size
    return bounds


def partition_layers(layer_sizes: Sequence[int], parts: int) -> list[list[int]]:
    """Assign layer indices to ``parts`` workers, contiguously and evenly.

    This mirrors the paper's PTO-for-LARS example: "the first GPU
    calculates 1 to 2 layers' learning rates, the second one calculates
    layer 3 to 4, and so on" — i.e. a contiguous split of the layer list,
    *not* a balanced-by-size split.  (A size-balanced variant lives in
    :func:`partition_layers_balanced`.)
    """
    n_layers = len(layer_sizes)
    return [list(range(start, end)) for start, end in chunk_bounds(n_layers, parts)]


def partition_layers_balanced(layer_sizes: Sequence[int], parts: int) -> list[list[int]]:
    """Greedy size-balanced layer assignment (largest layer first).

    Provided as the "obvious improvement" over the paper's contiguous
    split; ``ParallelTensorOperator(balanced=True)`` uses it.
    """
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    loads = np.zeros(parts, dtype=np.float64)
    assignment: list[list[int]] = [[] for _ in range(parts)]
    order = np.argsort(np.asarray(layer_sizes, dtype=np.float64))[::-1]
    for layer in order:
        target = int(np.argmin(loads))
        assignment[target].append(int(layer))
        loads[target] += layer_sizes[layer]
    for worker in assignment:
        worker.sort()
    return assignment


def round_robin_shards(
    x: np.ndarray, y: np.ndarray, world_size: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Round-robin shard a labelled dataset across ``world_size`` workers.

    Worker ``r`` takes samples ``r, r + P, r + 2P, ...`` so every shard
    sees (almost) the same class mix.  This is the sharder the trainer
    uses; the elastic membership layer re-invokes it whenever the live
    worker set changes, so re-sharding after a revocation is one call.
    """
    if world_size < 1:
        raise ValueError(f"world_size must be >= 1, got {world_size}")
    if len(x) != len(y):
        raise ValueError(f"x and y lengths differ: {len(x)} vs {len(y)}")
    shards = []
    for rank in range(world_size):
        sel = slice(rank, None, world_size)
        shards.append((x[sel], y[sel]))
    if any(len(sx) == 0 for sx, _ in shards):
        raise ValueError(
            f"dataset of {len(x)} samples too small for {world_size} workers"
        )
    return shards


@dataclass(frozen=True)
class FlatLayout:
    """Where each named tensor lives in one fused ``(dim,)`` buffer.

    The tensors are concatenated flat in name order (tensor fusion:
    Shi et al. 2019b; Horovod's fusion buffer), the layout derived once
    from the init-time shapes; the trainer reads and fills flat gradient
    buffers through it.  A buffer is one
    ``(dim,)`` row or a ``(rows, dim)`` block of them; :meth:`views`
    hands out the tensors *in* it (what a model computes gradients
    into).

    ``dtype`` is the tensors' one dtype — the dtype every buffer laid
    out by it is allocated in, so a model's parameters fix the dtype of
    its gradients, their aggregation and its update.
    """

    names: tuple[str, ...]
    shapes: tuple[tuple[int, ...], ...]
    slices: tuple[slice, ...]
    dim: int
    dtype: np.dtype = np.dtype(np.float64)

    @classmethod
    def of(cls, tensors: Mapping[str, np.ndarray]) -> "FlatLayout":
        first: dict[np.dtype, str] = {}  # each dtype's first tensor
        for name, tensor in tensors.items():
            first.setdefault(np.asarray(tensor).dtype, name)
        if len(first) > 1:
            mixed = ", ".join(f"{name} is {dtype}" for dtype, name in first.items())
            raise ValueError(f"cannot fuse tensors of mixed dtypes into one buffer: {mixed}")
        shapes = tuple(tuple(np.shape(t)) for t in tensors.values())
        sizes = [int(np.prod(shape)) for shape in shapes]
        ends = np.cumsum(sizes).tolist()
        slices = tuple(slice(hi - size, hi) for size, hi in zip(sizes, ends))
        return cls(tuple(tensors), shapes, slices, sum(sizes), *first)  # the one dtype, if any

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """The named tensors as zero-copy views of ``flat``: one ``(dim,)``
        row, or a ``(rows, dim)`` block whose tensors carry a leading
        row axis.

        Splitting the unit-stride last axis never copies, and the
        tensors' own dims stay contiguous (a GEMM can write into them)
        whatever the stride between rows.
        """
        if flat.strides[-1] != flat.itemsize:
            raise ValueError(
                f"cannot view tensors in a buffer of strides {flat.strides}: "
                "its last axis is not contiguous"
            )
        return {
            name: flat[..., sl].reshape(*flat.shape[:-1], *shape)
            for name, sl, shape in zip(self.names, self.slices, self.shapes)
        }


__all__ = [
    "FlatLayout",
    "chunk_sizes",
    "chunk_bounds",
    "partition_layers",
    "partition_layers_balanced",
    "round_robin_shards",
]
