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
from repro.utils.partition import FlatLayout, chunk_bounds, round_robin_shards
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
    """What the trainer needs from a model: its parameters, and one
    blocked pass over all workers' batches.

    ``loss_and_grad_workers(params, xs, ys, out)`` takes the stacked
    ``(W, B, ...)`` batches and ``(W, B, ...)`` labels (a label < 0 is
    padding) and returns the ``(W,)`` losses, one ``(W, *shape)``
    gradient per parameter and ``W`` metric dicts, bit-identical to ``W``
    one-worker calls; one batch alone goes through it as a one-worker
    block (``x[None]``).

    ``out`` maps parameter names to *gradient destinations*: ``(W,
    *shape)`` arrays owned by the caller (views of rows of the trainer's
    fusion buffer), holding arbitrary bytes.  A model should compute each
    gradient there — overwrite, never read or accumulate — and return,
    for every tensor it placed, the destination itself (the same
    object); a tensor it returns as any other array is copied in by the
    caller, so ignoring ``out`` is merely slower.  Models built on the
    tape get all of this from
    :func:`~repro.models.autodiff.leaf_tensors`.  With ``out=None``
    every gradient is a fresh array.  On the node-sum route every
    destination is a fold sink (see
    :class:`~repro.models.autodiff.Tensor`) rather than an array; a
    gradient returned as an array is folded by the caller.

    The tape models record their first call and replay it while the key
    holds (:class:`~repro.models.autodiff.Programs`, one program a
    model): the trainer keeps its parameters and destinations in the
    same buffers from step to step — parameters updated in place, the
    same views of the fusion buffer or the same sinks — so every step
    after its first is a replay, and a new trainer around the model
    makes a new recording.
    """

    def init_params(self, rng: RandomState) -> dict[str, np.ndarray]:
        ...

    def loss_and_grad_workers(
        self,
        params: dict[str, np.ndarray],
        xs: np.ndarray,
        ys: np.ndarray,
        out: dict[str, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, dict[str, np.ndarray], list[dict[str, float]]]:
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
    """The node-sum route's destinations: each node's workers' gradients
    are folded into the scheme's ``(m, d)`` node accumulator (HiTopKComm's
    step 1) as they are made, and no ``(W, d)`` matrix exists.

    Every parameter's destination is a :class:`_FoldSink`, and all of
    them share one slab.  Every column of the accumulator is rewritten
    each step.
    """

    def __init__(self, scheme, layout: FlatLayout) -> None:
        self.node_acc = scheme.node_accumulator(layout.dim, layout.dtype)
        gpus = scheme.topology.gpus_per_node
        self.dests = {
            name: _FoldSink(self.node_acc, sl.start, shape, gpus)
            for name, sl, shape in zip(layout.names, layout.slices, layout.shapes)
        }
        slab = np.empty(max(sink.slab_size for sink in self.dests.values()), dtype=layout.dtype)
        for sink in self.dests.values():
            sink.slab = slab


def _gradients(model, params, batches, dests, land, timer) -> tuple[list[float], list[dict]]:
    """The trainer's compute stage, on either route: one blocked pass
    over the stacked ``batches``, every gradient computed in its
    destination in ``dests``; ``(losses, metrics)``, one entry per worker.

    A gradient the model returns as some other array is landed there
    after the backward, ``land(dest, grad)`` (a copy into a view of the
    matrix, a fold into a sink), so a model that ignores its
    destinations is merely slower.  ``timer`` (anything with
    ``add(phase, seconds)``) gets one ``forward_backward`` and one
    ``fuse`` record; the latter times that check and whatever it landed.
    """
    tick = time.perf_counter
    t0 = tick()
    xs = np.stack([bx for bx, _ in batches])
    ys = np.stack([by for _, by in batches])
    losses, grads, metrics = model.loss_and_grad_workers(params, xs, ys, dests)
    t1 = tick()
    for name, grad in grads.items():
        if grad is not dests[name]:  # computed outside its destination
            land(dests[name], grad)
    if timer is not None:
        timer.add("forward_backward", t1 - t0)
        timer.add("fuse", tick() - t1)
    return [float(loss) for loss in losses], metrics


def _large(shape: tuple[int, ...], dtype: np.dtype) -> bool:
    """Whether a parameter makes the node-sum route pay: a matrix of
    more than one column above :data:`_SINK_BYTES`."""
    return len(shape) == 2 and shape[1] > 1 and shape[0] * shape[1] * dtype.itemsize > _SINK_BYTES


def _takes_node_sums(scheme, layout: FlatLayout) -> bool:
    """Whether the trainer folds node sums as the gradient is made.

    It does when the scheme offers them (``aggregate_node_sums``), there
    is more than one worker, the parameters are float32 (float64 row
    slabs are not the whole GEMM's bits on every shape) and some
    parameter is large enough to gain.
    """
    return (
        hasattr(scheme, "aggregate_node_sums")
        and scheme.topology.world_size > 1
        and layout.dtype == np.float32
        and any(_large(shape, layout.dtype) for shape in layout.shapes)
    )


@dataclass
class TrainingReport:
    """Per-epoch records from one training run."""

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
    computed in one blocked pass over the stacked ``(W, B, ...)`` block
    (:func:`_gradients`), then aggregate through the scheme and apply the
    averaged gradient.  Every worker's batch has worker 0's shapes (a
    label < 0 is padding, and padding stacks).  The trainer owns the
    gradient's memory, and decides once, at construction, where the
    gradient is made:

    - the matrix route: in the rows of one preallocated ``(W, d)``
      fusion buffer, whose ``layout.views`` are the model's
      destinations, and which the scheme reads in place;
    - the node-sum route (:class:`_NodeSums`), where the scheme offers
      node sums and a large float32 weight makes them pay: folded into
      the scheme's ``(m, d)`` node accumulator as the blocked backward
      makes it, so no ``(W, d)`` array exists.

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
        each step's ``forward_backward`` / ``fuse`` / ``aggregate`` /
        ``apply`` phases are accumulated, one record each (``fuse`` is
        ≈ 0 unless the model computed gradients outside its destinations
        and they had to be copied in, or on the node-sum route folded);
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
        # Where the gradient is made, decided once: what the scheme
        # aggregates, the model's destinations in it, how a gradient
        # returned outside its destination lands there, and the scheme
        # method that aggregates it (looked up each step).  On the
        # node-sum route the gradient is folded into the scheme's node
        # sums as it is computed.  Otherwise the (W, d) fusion buffer is
        # preallocated and reused every step: each row is where one
        # worker's gradient is computed, and the whole matrix is what the
        # scheme aggregates.  Either takes the parameters' dtype, and so
        # do the aggregate and the update computed from it.
        if _takes_node_sums(scheme, self._layout):
            sums = _NodeSums(scheme, self._layout)
            self._grads, self._dests, self._land = sums.node_acc, sums.dests, _FoldSink.fold
            self._aggregate = "aggregate_node_sums"
        else:
            self._grads = np.zeros((self.world_size, self.grad_dim), dtype=self._layout.dtype)
            self._dests, self._land = self._layout.views(self._grads), np.copyto
            self._aggregate = "aggregate"

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
        or into the rows of the ``(W, d)`` fusion buffer, and the scheme
        aggregates them in one call.  A batch that is empty, or whose
        shapes are not worker 0's, is a one-line ``ValueError`` before
        the model is called.
        """
        if len(batches) != self.world_size:
            raise ValueError(
                f"need {self.world_size} worker batches, got {len(batches)}"
            )
        shapes = np.shape(batches[0][0]), np.shape(batches[0][1])
        for worker, (bx, by) in enumerate(batches):
            if not len(bx):
                raise ValueError(
                    f"worker {worker}'s batch is empty (x shape {np.shape(bx)})"
                )
            if (np.shape(bx), np.shape(by)) != shapes:
                raise ValueError(
                    f"worker {worker}'s batch (x shape {np.shape(bx)}, y shape "
                    f"{np.shape(by)}) does not stack with worker 0's (x shape "
                    f"{shapes[0]}, y shape {shapes[1]})"
                )
        timer = self.timer
        losses, metrics = _gradients(
            self.model, self.params, batches, self._dests, self._land, timer
        )
        tick = time.perf_counter
        if timer is not None:
            t0 = tick()
        result = getattr(self.scheme, self._aggregate)(self._grads, rng=self._rng)
        if timer is not None:
            t1 = tick()
            timer.add("aggregate", t1 - t0)
        comm_seconds, mean = result.time, result.aggregate / self.world_size
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
    ) -> TrainingReport:
        """Run ``epochs`` of synchronous training.

        ``evaluate(params, val_x, val_y) -> float`` supplies the
        validation metric (top-k accuracy / token accuracy); defaults to
        the model's ``evaluate`` if present.  A ``local_batch`` above the
        smallest shard takes that shard's size: one step an epoch.
        """
        if epochs < 1 or local_batch < 1:
            raise ValueError("epochs and local_batch must be >= 1")
        if evaluate is None:
            evaluate = getattr(self.model, "evaluate", None)
        report = TrainingReport()
        shards = self._shard_data(np.asarray(x), np.asarray(y))
        smallest = min(len(sx) for sx, _ in shards)
        local_batch = min(local_batch, smallest)  # no batch runs past a shard: every step stacks
        steps = smallest // local_batch

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
