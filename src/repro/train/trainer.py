"""Distributed synchronous SGD over the virtual cluster.

Implements paper Eq. (1) end to end: every virtual worker computes a
real gradient on its own shard of the data, straight into its row of
one flat fusion buffer (tensor fusion without the copy); the rows are
pushed through the configured :class:`~repro.comm.CommScheme` (which may
sparsify, with error feedback), averaged, and applied by the optimizer
to the replicated parameters.  Virtual communication time accumulates alongside, so one
run yields both a convergence curve and a simulated wall-clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from repro.comm.base import CommScheme
from repro.optim.sgd import SGD
from repro.utils.partition import FlatLayout, gradient_rows, round_robin_shards
from repro.utils.seeding import RandomState, new_rng


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
    computed in its row of the ``(W, d)`` fusion buffer
    (:func:`~repro.utils.partition.gradient_rows`, which alone decides
    between the model's blocked all-rows pass and the per-row loop), then
    aggregate through the scheme and apply the averaged gradient.  The
    trainer owns the gradient's memory: the model's tape writes into
    views of that one preallocated buffer, the scheme reads it in place,
    and nothing of ``(W, d)`` size is allocated or copied per step.

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
        destinations and they had to be copied in) and ``aggregate`` /
        ``apply`` (one per step) phases are accumulated; when ``None``
        nothing is recorded.
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
        # Preallocated (W, d) fusion buffer, reused every step: each row
        # is where one worker's gradient is computed, and the whole
        # matrix is what the scheme aggregates.  It takes the parameters'
        # dtype, and so do the aggregate and the update computed from it.
        self._grad_matrix = np.zeros((self.world_size, self.grad_dim), dtype=self._layout.dtype)

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

        Hot path: :func:`~repro.utils.partition.gradient_rows` has the
        model compute each worker's gradient in its row of the
        preallocated ``(W, d)`` fusion buffer and the scheme aggregates
        the matrix in one call.
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
        losses, metrics = gradient_rows(
            self.model, self.params, batches, self._grad_matrix,
            self._layout, timer,
        )
        tick = time.perf_counter
        if timer is not None:
            t0 = tick()
        result = self.scheme.aggregate(self._grad_matrix, rng=self._rng)
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
