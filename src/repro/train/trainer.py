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

import math
import time
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from repro.collectives.reduce_scatter import ring_fold
from repro.comm.base import CommScheme
from repro.optim.sgd import SGD
from repro.utils.partition import (
    FlatLayout,
    chunk_bounds,
    gradient_rows,
    round_robin_shards,
    stackable,
)
from repro.utils.seeding import RandomState, new_rng

#: Size above which a 2-D parameter's per-worker gradient makes the
#: node-sum route pay (:func:`_takes_node_sums`).  At ``train-comm``'s
#: ``fc1`` (1 MiB per worker, float32) the ``beta = 0`` GEMMs straight
#: into the rows of a ``(W, d)`` matrix ran with those rows out of cache
#: (≈ 6.7 ms for the 16 of them on a 2-core Xeon, one OpenBLAS thread);
#: folded per node in cache-sized slabs the matrix never exists.  Its
#: ``fc0`` (128 KiB) and every other workload's weights stay below it.
_SINK_BYTES = 256 * 1024

#: One node's weight-gradient slab on the node-sum route: the ``n``
#: workers' products for a block of rows, computed and folded into the
#: node sum while they are in cache.  At ``train-comm``'s ``fc1`` it is
#: 8 workers x 64 rows x 512 x 4 B, and its ``fc0`` (8 x 64 x 512 x 4 B)
#: is one slab whole.  Step medians there, for 128 KiB / 256 KiB /
#: 512 KiB / 1 MiB / 2 MiB: 11.8 / 9.1 / 9.7 / 9.0 / 10.4 ms (2-core
#: Xeon, one OpenBLAS thread, a slow-host reading).
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
    :func:`~repro.utils.partition.gradient_rows` takes it whenever the
    batches have one shape, padded labels included.  The MLP and the CNN
    have no other body: their ``loss_and_grad`` is that pass on a
    one-worker block (:func:`~repro.models.autodiff.single_worker`).
    On the node-sum route it is always the blocked pass, and every
    destination is a fold sink (see
    :class:`~repro.models.autodiff.Tensor`) rather than an array; a
    gradient returned as an array is folded by the caller.
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


class _FoldSink:
    """The gradient destination of one parameter on the node-sum route:
    a fold sink (:class:`~repro.models.autodiff.Tensor`), which folds each
    node's workers into that node's row of the scheme's ``(m, d)`` node
    accumulator, at the parameter's columns.

    A weight's worker-batched product ``x @ y`` (:meth:`matmul`, the
    parameter as ``(rows, cols)``: its first axis by the rest) is
    computed one node at a time into the shared :attr:`slab`, each slab
    ring-folded into that node's sum while it is in cache.  A node's
    product within :data:`_SLAB_BYTES` is one slab: the per-worker GEMM
    the matrix route runs.  Above it the product is split into row
    slabs of about that size.  A float32 slab of two rows or more is the
    whole product's GEMM on fewer rows, with the same bits at the shapes
    that exceed the bound; a one-row slab or a one-column product is a
    GEMV, whose bits differ.  So every slab has at least two rows, and a
    one-column weight is never split (``tests/perf/test_node_sum_bits.py``).

    Any other gradient (:meth:`fold`: a bias's, or one the model
    returned outside its destination) arrives whole, as a ``(W, *shape)``
    array, and is ring-folded as it is.
    """

    def __init__(self, node_acc: np.ndarray, start: int, shape: tuple[int, ...], gpus: int) -> None:
        self._node_acc, self._gpus = node_acc, gpus
        self._start = start  # the parameter's first column in the gradient
        rows, cols = (shape[0], math.prod(shape[1:])) if shape else (1, 1)
        self._shape = rows, cols
        least = max(2, _SLAB_BYTES // max(1, gpus * cols * node_acc.itemsize))
        self._slabs = chunk_bounds(rows, 1 if cols == 1 else max(1, rows // least))
        #: Elements the largest slab needs; :class:`_NodeSums` sets
        #: :attr:`slab` to one buffer shared by all sinks, sized for the
        #: largest.
        self.slab_size = gpus * cols * max(hi - lo for lo, hi in self._slabs)
        self.slab: np.ndarray | None = None

    def matmul(self, x: np.ndarray, y: np.ndarray) -> None:
        node_acc, start, n = self._node_acc, self._start, self._gpus
        m, d = node_acc.shape
        rows, cols = self._shape
        shape = np.broadcast_shapes(x.shape[:-2], y.shape[:-2]) + (x.shape[-2], y.shape[-1])
        if shape != (m * n, rows, cols):
            raise ValueError(f"fold sink of {m * n} x {self._shape} got a {shape} product")
        x = np.broadcast_to(x, shape[:1] + x.shape[-2:]).reshape(m, n, *x.shape[-2:])
        y = np.broadcast_to(y, shape[:1] + y.shape[-2:]).reshape(m, n, *y.shape[-2:])
        for node, acc in enumerate(node_acc):
            for r0, r1 in self._slabs:
                slab = self.slab[: n * (r1 - r0) * cols].reshape(n, r1 - r0, cols)
                np.matmul(x[node, :, r0:r1], y[node], out=slab)
                lo = start + r0 * cols
                ring_fold(slab.reshape(n, -1), d, lo, acc[lo : lo + (r1 - r0) * cols])

    def fold(self, grad: np.ndarray) -> None:
        (m, d), n, start = self._node_acc.shape, self._gpus, self._start
        block = np.asarray(grad, dtype=self._node_acc.dtype).reshape(m * n, math.prod(self._shape))
        for node, acc in enumerate(self._node_acc):
            ring_fold(block[node * n : (node + 1) * n], d, start, acc[start : start + block.shape[1]])


class _NodeSums:
    """The node-sum route: each node's workers' gradients are folded into
    the scheme's ``(m, d)`` node accumulator (HiTopKComm's step 1) as they
    are made, and no ``(W, d)`` matrix exists.

    Every parameter's destination is a :class:`_FoldSink`, and all of
    them share one slab.  Only a gradient the model returns outside its
    destination is folded after the backward (the ``fuse`` phase).
    Every column of the accumulator is rewritten each step.
    """

    def __init__(self, scheme, layout: FlatLayout) -> None:
        self.node_acc = scheme.node_accumulator(layout.dim, layout.dtype)
        gpus = scheme.topology.gpus_per_node
        self._dests = {
            name: _FoldSink(self.node_acc, sl.start, shape, gpus)
            for name, sl, shape in zip(layout.names, layout.slices, layout.shapes)
        }
        slab = np.empty(max(sink.slab_size for sink in self._dests.values()), dtype=layout.dtype)
        for sink in self._dests.values():
            sink.slab = slab

    def gradients(self, model, params, batches, timer) -> tuple[list[float], list[dict]]:
        """One blocked pass over the stacked ``batches``, its gradient
        folded into :attr:`node_acc`; ``(losses, metrics)`` per worker."""
        tick = time.perf_counter
        t0 = tick()
        xs = np.stack([bx for bx, _ in batches])
        ys = np.stack([by for _, by in batches])
        losses, grads, metrics = model.loss_and_grad_workers(params, xs, ys, self._dests)
        t1 = tick()
        for name, grad in grads.items():
            if grad is not self._dests[name]:  # computed outside its destination
                self._dests[name].fold(grad)
        if timer is not None:
            timer.add("forward_backward", t1 - t0)
            timer.add("fuse", tick() - t1)
        return [float(loss) for loss in losses], metrics


def _large(shape: tuple[int, ...], dtype: np.dtype) -> bool:
    """Whether a parameter makes the node-sum route pay: a matrix of
    more than one column above :data:`_SINK_BYTES`."""
    return len(shape) == 2 and shape[1] > 1 and shape[0] * shape[1] * dtype.itemsize > _SINK_BYTES


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
        ``fuse`` is ≈ 0 unless the model computed gradients outside its
        destinations and they had to be copied in, or on the node-sum
        route folded) and
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
            _NodeSums(scheme, self._layout)
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
        comm_seconds, mean = result.time, result.outputs[0] / self.world_size
        del result  # the dense aggregate dies before the optimizer's temporaries exist
        self.optimizer.step(self.params, self._layout.views(mean))
        if timer is not None:
            timer.add("apply", tick() - t1)

        metric_sums: dict[str, float] = {}
        for row_metrics in metrics:
            for key, value in row_metrics.items():
                metric_sums[key] = metric_sums.get(key, 0.0) + value
        means = {k: v / self.world_size for k, v in metric_sums.items()}
        return float(np.mean(losses)), means | {"comm_seconds": comm_seconds}

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
