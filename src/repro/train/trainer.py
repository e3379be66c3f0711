"""Distributed synchronous SGD over the virtual cluster.

Implements paper Eq. (1) end to end: every virtual worker computes a
real gradient on its own shard of the data, straight into its row of
one flat fusion buffer (tensor fusion without the copy); the rows are
pushed through the configured :class:`~repro.comm.CommScheme` (which may
sparsify, with error feedback), averaged, and applied by the optimizer
to the replicated parameters.  Where the scheme's first step sums each
node's workers (HiTopKComm), the rows are folded into those node sums
as they are made instead, and the fusion buffer never exists.  Virtual
communication time accumulates alongside, so one run yields both a
convergence curve and a simulated wall-clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from repro.collectives.reduce_scatter import ring_fold
from repro.comm.base import CommScheme
from repro.models.autodiff import _TILE_BYTES
from repro.optim.sgd import SGD
from repro.utils.partition import (
    FlatLayout,
    chunk_bounds,
    gradient_rows,
    round_robin_shards,
    stackable,
)
from repro.utils.seeding import RandomState, new_rng

#: One node's weight-gradient slab on the node-sum route: the ``n``
#: workers' products for a block of rows, computed and folded into the
#: node sum while they are in cache.  At ``train-comm``'s ``fc1`` it is
#: 8 workers x 64 rows x 512 x 4 B.  Step medians there, for 128 KiB /
#: 256 KiB / 512 KiB / 1 MiB / 2 MiB: 11.8 / 9.1 / 9.7 / 9.0 / 10.4 ms
#: (2-core Xeon, one OpenBLAS thread, a slow-host reading).
_SLAB_BYTES = 1 << 20


class TrainableModel(Protocol):
    """What the trainer needs from a model.

    ``out`` maps parameter names to *gradient destinations*: arrays of
    each parameter's shape, owned by the caller (views of a row of the
    trainer's fusion buffer), holding arbitrary bytes.  A model should
    compute each gradient there — overwrite, never read or accumulate —
    and return, for every tensor it placed, the destination itself (the
    same object); a tensor it returns as any other array is copied in by
    the caller, so ignoring ``out`` is merely slower.  Models built on
    the tape get all of this from
    :func:`~repro.models.autodiff.leaf_tensors`.  With ``out=None``
    every gradient is a fresh array.

    A model may also offer ``loss_and_grad_workers(params, xs, ys,
    out=None)`` — all workers' stacked ``(W, B, ...)`` batches through
    one blocked pass, returning per-worker losses, gradients (and taking
    destinations) with a leading worker axis and per-worker metrics;
    :func:`~repro.utils.partition.gradient_rows` takes it when it can.
    On the node-sum route it is always the blocked pass, and the
    destination of a large weight is a fold sink (see
    :class:`~repro.models.autodiff.Tensor`) rather than an array.
    """

    def init_params(self, rng: RandomState) -> dict[str, np.ndarray]:
        ...

    def loss_and_grad(
        self,
        params: dict[str, np.ndarray],
        x: np.ndarray,
        y: np.ndarray,
        out: dict[str, np.ndarray] | None = None,
    ) -> tuple[float, dict[str, np.ndarray], dict[str, float]]:
        ...


def _fold_nodes(block: np.ndarray, start: int, node_acc: np.ndarray) -> None:
    """Ring-fold the ``(W, L)`` ``block`` — columns ``[start, start + L)``
    of every worker's gradient — into each node's row of ``node_acc``."""
    m, d = node_acc.shape
    n = len(block) // m
    for node, acc in enumerate(node_acc):
        ring_fold(block[node * n : (node + 1) * n], d, start, acc[start : start + block.shape[1]])


class _FoldSink:
    """The gradient destination of one large 2-D parameter on the
    node-sum route: a fold sink (:class:`~repro.models.autodiff.Tensor`).

    It takes the worker-batched weight-gradient product ``x @ y`` and
    computes it one node at a time in row slabs of about
    :data:`_SLAB_BYTES`, each ring-folded into that node's sum at the
    parameter's columns while it is in cache.  A float32 slab of two rows
    or more is the whole product's GEMM on fewer rows, with the same bits
    on this path's shapes; a one-row slab or a one-column product is a
    GEMV, whose bits differ.  So every slab has at least two rows (or is
    the whole product), and a one-column parameter gets no sink
    (``tests/perf/test_node_sum_bits.py``).
    """

    def __init__(
        self, node_acc: np.ndarray, start: int, shape: tuple[int, int], gpus: int
    ) -> None:
        self._node_acc = node_acc
        self.start = start  # the parameter's first column in the gradient
        self._shape = shape
        self._gpus = gpus
        rows, cols = shape
        least = max(2, _SLAB_BYTES // (gpus * cols * node_acc.itemsize))
        self._slabs = chunk_bounds(rows, max(1, rows // least))
        most = max(hi - lo for lo, hi in self._slabs)
        self._slab = np.empty(gpus * most * cols, dtype=node_acc.dtype)

    def matmul(self, x: np.ndarray, y: np.ndarray) -> None:
        node_acc, start, n = self._node_acc, self.start, self._gpus
        m, d = node_acc.shape
        rows, cols = self._shape
        shape = np.broadcast_shapes(x.shape[:-2], y.shape[:-2]) + (x.shape[-2], y.shape[-1])
        if shape != (m * n, rows, cols):
            raise ValueError(f"fold sink of {m * n} x {self._shape} got a {shape} product")
        x = np.broadcast_to(x, shape[:1] + x.shape[-2:]).reshape(m, n, *x.shape[-2:])
        y = np.broadcast_to(y, shape[:1] + y.shape[-2:]).reshape(m, n, *y.shape[-2:])
        for node, acc in enumerate(node_acc):
            for r0, r1 in self._slabs:
                slab = self._slab[: n * (r1 - r0) * cols].reshape(n, r1 - r0, cols)
                np.matmul(x[node, :, r0:r1], y[node], out=slab)
                lo = start + r0 * cols
                ring_fold(slab.reshape(n, -1), d, lo, acc[lo : lo + (r1 - r0) * cols])


class _NodeSums:
    """The node-sum route: each node's workers' gradients are folded into
    the scheme's ``(m, d)`` node accumulator (HiTopKComm's step 1) as they
    are made, and no ``(W, d)`` matrix exists.

    Each large 2-D parameter gets a :class:`_FoldSink`.  The others are
    computed into views of one ``(W, d_small)`` buffer laid out in ``d``
    order, so they form a few contiguous runs of the gradient, and each
    run is ring-folded per node after the backward (the ``fuse`` phase).
    Every column of the accumulator is rewritten each step.
    """

    def __init__(self, scheme, params: dict[str, np.ndarray], layout: FlatLayout) -> None:
        self.node_acc = scheme.node_accumulator(layout.dim, layout.dtype)
        gpus = scheme.topology.gpus_per_node
        self._sinks: dict[str, _FoldSink] = {}
        self._runs: list[list[int]] = []  # [first column, first small column, length]
        small = 0
        for name, sl, shape in zip(layout.names, layout.slices, layout.shapes):
            if _large(shape, layout.dtype):
                self._sinks[name] = _FoldSink(self.node_acc, sl.start, shape, gpus)
                continue
            run = self._runs[-1] if self._runs else None
            if run is not None and run[0] + run[2] == sl.start:
                run[2] += sl.stop - sl.start
            else:
                self._runs.append([sl.start, small, sl.stop - sl.start])
            small += sl.stop - sl.start
        self._small_layout = FlatLayout.of(
            {name: params[name] for name in layout.names if name not in self._sinks}
        )
        world = scheme.topology.world_size
        self._small = np.zeros((world, small), dtype=layout.dtype)
        self._dests = self._small_layout.views(self._small) | self._sinks

    def gradients(self, model, params, batches, timer) -> tuple[list[float], list[dict]]:
        """One blocked pass over the stacked ``batches``, its gradient
        folded into :attr:`node_acc`; ``(losses, metrics)`` per worker."""
        tick = time.perf_counter
        t0 = tick()
        xs = np.stack([bx for bx, _ in batches])
        ys = np.stack([by for _, by in batches])
        losses, grads, metrics = model.loss_and_grad_workers(params, xs, ys, self._dests)
        t1 = tick()
        elsewhere = {name: grad for name, grad in grads.items() if grad is not self._dests[name]}
        if elsewhere:  # computed outside its destination: copied in, or folded if large
            self._small_layout.write(self._small, elsewhere)
            for name, sink in self._sinks.items():
                if name in elsewhere:
                    block = elsewhere[name].reshape(len(self._small), -1)
                    _fold_nodes(block, sink.start, self.node_acc)
        for start, first, length in self._runs:
            _fold_nodes(self._small[:, first : first + length], start, self.node_acc)
        if timer is not None:
            timer.add("forward_backward", t1 - t0)
            timer.add("fuse", tick() - t1)
        return [float(loss) for loss in losses], metrics


def _large(shape: tuple[int, ...], dtype: np.dtype) -> bool:
    """Whether a parameter gets a fold sink on the node-sum route: a
    matrix of more than one column above the weight-gradient tile bound."""
    return len(shape) == 2 and shape[1] > 1 and shape[0] * shape[1] * dtype.itemsize > _TILE_BYTES


def _takes_node_sums(model, scheme, layout: FlatLayout) -> bool:
    """Whether the trainer folds node sums as the gradient is made.

    It does when the scheme offers them (``aggregate_node_sums``), the
    model offers a blocked pass, there is more than one worker, the
    parameters are float32 (float64 row slabs are not the whole GEMM's
    bits on every shape) and some parameter is large enough to gain.
    """
    return (
        hasattr(scheme, "aggregate_node_sums")
        and hasattr(model, "loss_and_grad_workers")
        and scheme.topology.world_size > 1
        and layout.dtype == np.float32
        and any(_large(shape, layout.dtype) for shape in layout.shapes)
    )


@dataclass
class TrainingReport:
    """Per-epoch records from one training run."""

    algorithm: str
    epoch_losses: list[float] = field(default_factory=list)
    epoch_metrics: list[float] = field(default_factory=list)
    val_metrics: list[float] = field(default_factory=list)
    comm_seconds: float = 0.0
    iterations: int = 0

    @property
    def final_val_metric(self) -> float:
        if not self.val_metrics:
            raise ValueError("no validation metrics recorded")
        return self.val_metrics[-1]


class DistributedTrainer:
    """Synchronous data-parallel trainer over ``P`` virtual workers.

    A step is: validate the batches, have every worker's gradient
    computed, then aggregate through the scheme and apply the averaged
    gradient.  The trainer owns the gradient's memory, and decides once,
    at construction, where the gradient is made:

    - the matrix route: in the rows of one preallocated ``(W, d)``
      fusion buffer (:func:`~repro.utils.partition.gradient_rows`, which
      alone decides between the model's blocked all-rows pass and the
      per-row loop), which the scheme reads in place;
    - the node-sum route (:class:`_NodeSums`), where the scheme offers
      node sums and a large float32 weight makes them pay: folded into
      the scheme's ``(m, d)`` node accumulator as the blocked backward
      makes it, so no ``(W, d)`` array exists.  A step whose batches do
      not stack takes the matrix route, allocated then.

    Either way nothing of gradient size is allocated or copied per step,
    and the two give the same bits.

    Parameters
    ----------
    model:
        A :class:`TrainableModel` (MLP / CNN / tiny Transformer).
    scheme:
        Gradient aggregation scheme; its topology fixes ``P``.
    optimizer:
        Optimizer applied to the replicated parameters after
        aggregation (default: momentum SGD).
    seed:
        Controls parameter init, shuffling, and MSTopK's random runs.
    timer:
        Optional sink with an ``add(phase, seconds)`` method (the
        benchmark's span recorder, or a test's accumulator).  When set,
        each step's ``forward_backward`` / ``fuse`` (one record per model call;
        on the matrix route ``fuse`` is ≈ 0 unless the model computed
        gradients outside its destinations and they had to be copied in,
        on the node-sum route it is the small parameters' fold) and
        ``aggregate`` / ``apply`` (one per step) phases are accumulated;
        when ``None`` nothing is recorded.
    """

    def __init__(
        self,
        model: TrainableModel,
        scheme: CommScheme,
        optimizer: SGD | None = None,
        *,
        seed: int = 0,
        timer=None,
    ) -> None:
        self.model = model
        self.scheme = scheme
        self.optimizer = optimizer if optimizer is not None else SGD(lr=0.05)
        self.world_size = scheme.topology.world_size
        self._rng = new_rng(seed)
        self.params = model.init_params(new_rng(seed + 1))
        self.timer = timer
        # Fused-gradient layout, computed ONCE: every worker produces
        # gradients with the init-time shapes.
        self._layout = FlatLayout.of(self.params)
        self.grad_dim = self._layout.dim
        # Where the gradient is made, decided once.  On the node-sum route
        # it is folded into the scheme's node sums as it is computed; the
        # (W, d) fusion buffer is allocated only for a step whose batches
        # do not stack.  Otherwise that buffer is preallocated and reused
        # every step: each row is where one worker's gradient is
        # computed, and the whole matrix is what the scheme aggregates.
        # Either takes the parameters' dtype, and so do the aggregate and
        # the update computed from it.
        self._node_sums = (
            _NodeSums(scheme, self.params, self._layout)
            if _takes_node_sums(model, scheme, self._layout)
            else None
        )
        self._grad_matrix = self._new_matrix() if self._node_sums is None else None

    def _new_matrix(self) -> np.ndarray:
        return np.zeros((self.world_size, self.grad_dim), dtype=self._layout.dtype)

    # ------------------------------------------------------------------
    def _shard_data(
        self, x: np.ndarray, y: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Round-robin shard so every worker sees every class mix."""
        return round_robin_shards(x, y, self.world_size)

    def train_step(
        self, batches: Sequence[tuple[np.ndarray, np.ndarray]]
    ) -> tuple[float, dict[str, float]]:
        """One synchronous step given one batch per worker.

        Hot path: the model computes every worker's gradient in one
        blocked pass, folded into the scheme's node sums (node-sum route)
        or into the rows of the ``(W, d)`` fusion buffer
        (:func:`~repro.utils.partition.gradient_rows`), and the scheme
        aggregates them in one call.
        """
        if len(batches) != self.world_size:
            raise ValueError(
                f"need {self.world_size} worker batches, got {len(batches)}"
            )
        for worker, (bx, _) in enumerate(batches):
            if not len(bx):
                raise ValueError(
                    f"worker {worker}'s batch is empty (x shape {np.shape(bx)})"
                )
        timer = self.timer
        if self._node_sums is not None and stackable(batches):
            losses, metrics = self._node_sums.gradients(self.model, self.params, batches, timer)
            aggregate, grads = self.scheme.aggregate_node_sums, self._node_sums.node_acc
        else:
            if self._grad_matrix is None:
                self._grad_matrix = self._new_matrix()
            grads = self._grad_matrix
            losses, metrics = gradient_rows(
                self.model, self.params, batches, grads, self._layout, timer
            )
            aggregate = self.scheme.aggregate
        tick = time.perf_counter
        if timer is not None:
            t0 = tick()
        result = aggregate(grads, rng=self._rng)
        if timer is not None:
            t1 = tick()
            timer.add("aggregate", t1 - t0)
        mean_grads = self._layout.views(result.outputs[0] / self.world_size)
        self.optimizer.step(self.params, mean_grads)
        if timer is not None:
            timer.add("apply", tick() - t1)

        metric_sums: dict[str, float] = {}
        for row_metrics in metrics:
            for key, value in row_metrics.items():
                metric_sums[key] = metric_sums.get(key, 0.0) + value
        means = {k: v / self.world_size for k, v in metric_sums.items()}
        return float(np.mean(losses)), means | {"comm_seconds": result.time}

    def train(
        self,
        x: np.ndarray,
        y: np.ndarray,
        *,
        epochs: int,
        local_batch: int,
        val_x: np.ndarray | None = None,
        val_y: np.ndarray | None = None,
        evaluate=None,
        algorithm_name: str | None = None,
    ) -> TrainingReport:
        """Run ``epochs`` of synchronous training.

        ``evaluate(params, val_x, val_y) -> float`` supplies the
        validation metric (top-k accuracy / token accuracy); defaults to
        the model's ``evaluate`` if present.
        """
        if epochs < 1 or local_batch < 1:
            raise ValueError("epochs and local_batch must be >= 1")
        if evaluate is None:
            evaluate = getattr(self.model, "evaluate", None)
        report = TrainingReport(algorithm=algorithm_name or self.scheme.name)
        shards = self._shard_data(np.asarray(x), np.asarray(y))
        steps = max(1, min(len(sx) for sx, _ in shards) // local_batch)

        for _ in range(epochs):
            # Per-epoch reshuffle inside each shard.
            epoch_shards = []
            for sx, sy in shards:
                order = self._rng.permutation(len(sx))
                epoch_shards.append((sx[order], sy[order]))

            epoch_loss = 0.0
            epoch_metric = 0.0
            for step in range(steps):
                batches = [
                    (
                        sx[step * local_batch : (step + 1) * local_batch],
                        sy[step * local_batch : (step + 1) * local_batch],
                    )
                    for sx, sy in epoch_shards
                ]
                loss, metrics = self.train_step(batches)
                epoch_loss += loss
                epoch_metric += metrics.get(
                    "accuracy", metrics.get("token_accuracy", 0.0)
                )
                report.comm_seconds += metrics["comm_seconds"]
                report.iterations += 1
            report.epoch_losses.append(epoch_loss / steps)
            report.epoch_metrics.append(epoch_metric / steps)
            if val_x is not None and val_y is not None and evaluate is not None:
                report.val_metrics.append(float(evaluate(self.params, val_x, val_y)))
        return report


__all__ = ["DistributedTrainer", "TrainingReport", "TrainableModel"]
