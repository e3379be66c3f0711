"""Tensor and layer partitioning helpers.

The hierarchical communication algorithm (Algorithm 2 in the paper)
shards a length-``d`` gradient across the ``n`` GPUs of a node, and the
parallel tensor operator (PTO, §4.2) shards a list of layers across all
``P`` GPUs.  Both need the same "split as evenly as possible" arithmetic,
centralised here so that every subsystem agrees on shard boundaries.

The convention matches NCCL's reduce-scatter: the first ``d % parts``
shards get one extra element.

Tensor fusion lives here too: :class:`FlatLayout`, where each tensor
sits in one fused buffer, and :func:`gradient_rows`, the compute stage
of the trainer's matrix route, which has every worker's gradient
computed in its row of the ``(W, d)`` buffer.  (Where the scheme takes
node sums the trainer folds them as the gradient is made, and that
buffer is not built; see :mod:`repro.train.trainer`.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

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
    into), :meth:`write` copies tensors that live elsewhere.

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

    def write(self, out: np.ndarray, tensors: Mapping[str, np.ndarray]) -> None:
        """Copy ``tensors`` (all of the layout's, or some) into their
        places in ``out``: one ``(dim,)`` row, or a ``(rows, dim)`` block
        of tensors that carry a leading row axis."""
        for name, sl in zip(self.names, self.slices):
            if name in tensors:
                out[..., sl] = tensors[name].reshape(*out.shape[:-1], -1)


def stackable(batches: Sequence[tuple[np.ndarray, np.ndarray]]) -> bool:
    """Whether a blocked all-workers pass (``loss_and_grad_workers``)
    can take these batches.

    Requires uniform shapes (they stack into one ``(W, B, ...)`` block)
    and no padded labels — the worker-blocked cross-entropy does not
    support the ``label < 0`` padding convention the per-row pass
    accepts.
    """
    bx0, by0 = batches[0]
    shape_x = np.shape(bx0)
    shape_y = np.shape(by0)
    if not all(
        np.shape(bx) == shape_x and np.shape(by) == shape_y for bx, by in batches[1:]
    ):
        return False
    for _, by in batches:
        labels = np.asarray(by)
        if labels.size and np.issubdtype(labels.dtype, np.number) and labels.min() < 0:
            return False
    return True


def gradient_rows(
    model: Any,
    params: dict[str, np.ndarray],
    batches: Sequence[tuple[np.ndarray, np.ndarray]],
    out: np.ndarray,
    layout: FlatLayout,
    timer=None,
) -> tuple[list[float], list[dict[str, float]]]:
    """The trainer's compute stage: the gradient of ``batches[i]``,
    computed in ``out[i]``, for every ``i``.

    One kernel, called by the trainer's matrix route on the whole
    ``(W, d)`` fusion buffer (``out`` is a ``(len(batches), layout.dim)``
    row block).  A
    model that offers ``loss_and_grad_workers`` runs all rows through
    one blocked tape pass when there is more than one and the batches
    stack; otherwise each row is one ``loss_and_grad`` call.  The two
    are bit-identical (pinned by ``tests/utils/test_gradient_rows.py``
    and the hot-path parity suite), so the choice is purely one of
    speed, made from what the kernel can observe.

    The gradient exists once: the model gets ``layout.views`` of its
    rows as gradient destinations (4th positional argument) and returns,
    for every tensor it computed in place, the destination itself.  Only
    a tensor returned as some other array is copied in afterwards
    (``layout.write``), so a model that ignores its destinations still
    fills ``out``.

    ``timer`` (anything with ``add(phase, seconds)``) gets one
    ``forward_backward`` and one ``fuse`` record per model call; the
    latter times that check and whatever it had to copy.
    Returns ``(losses, metrics)``, one entry per row in row order; the
    caller folds the metrics, so the float accumulation order does not
    depend on how the rows were split into calls.
    """
    if len(out) != len(batches) or out.shape[-1] != layout.dim:
        raise ValueError(
            f"gradient block of shape {out.shape} cannot take "
            f"{len(batches)} rows of {layout.dim} elements"
        )
    tick = time.perf_counter

    def fuse(t0: float, grads: Mapping[str, np.ndarray], dest: np.ndarray, views) -> None:
        t1 = tick()
        if timer is not None:
            timer.add("forward_backward", t1 - t0)
        elsewhere = {
            name: grads[name] for name in layout.names if grads[name] is not views[name]
        }
        if elsewhere:
            layout.write(dest, elsewhere)
        if timer is not None:
            timer.add("fuse", tick() - t1)

    if (
        len(batches) > 1
        and hasattr(model, "loss_and_grad_workers")
        and stackable(batches)
    ):
        t0 = tick()
        xs = np.stack([bx for bx, _ in batches])
        ys = np.stack([by for _, by in batches])
        views = layout.views(out)
        block_losses, grads, metrics = model.loss_and_grad_workers(params, xs, ys, views)
        fuse(t0, grads, out, views)
        return [float(loss) for loss in block_losses], metrics
    losses, metrics = [], []
    for (bx, by), row in zip(batches, out):
        t0 = tick()
        views = layout.views(row)
        loss, grads, row_metrics = model.loss_and_grad(params, bx, by, views)
        fuse(t0, grads, row, views)
        losses.append(loss)
        metrics.append(row_metrics)
    return losses, metrics


__all__ = [
    "FlatLayout",
    "gradient_rows",
    "chunk_sizes",
    "chunk_bounds",
    "partition_layers",
    "partition_layers_balanced",
    "round_robin_shards",
    "stackable",
]
