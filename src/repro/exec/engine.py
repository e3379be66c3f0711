"""The shared-memory step engine: per-worker compute on real cores.

:class:`ProcessStepEngine` binds one :class:`~repro.train.trainer.
DistributedTrainer` to a :class:`~repro.exec.backend.ProcessBackend`
pool.  At bind time it

* moves the trainer's preallocated ``(W, d)`` fusion matrix into a
  shared-memory block (aggregation in the parent keeps reading the very
  same pages — the zero-copy hot path of PR 3 survives intact),
* allocates a shared flat parameter buffer the parent refreshes before
  each dispatch, and
* partitions the ``W`` virtual workers into one contiguous row chunk
  per pool worker.

Each ``run_step`` ships only a chunk's first row index and its (small)
per-worker batches over the pipes; every worker runs the same compute
kernel the inline trainer runs
(:func:`repro.utils.partition.gradient_rows` — the engine never decides
how rows are computed) and gradients come
back through the shared matrix.  Per-row losses and metrics come back
in row order and the trainer folds them exactly as it does inline, so
the engine is bit-identical to ``serial`` (pinned by
``tests/perf/test_vectorized_parity.py``).  The kernel's per-call phase
records are replayed into the trainer's ``timer`` (``add(phase,
seconds)``), so compute done off the main process still shows up in the
profile — as CPU seconds across the pool, which can exceed the step's
wall-clock.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exec.shm import SharedArray
from repro.exec.worker import BIND, RELEASE, STEP, EngineSpec
from repro.utils.partition import chunk_bounds


class ProcessStepEngine:
    """Fans one trainer's per-worker forward/backward across the pool."""

    def __init__(self, backend, trainer) -> None:
        self.backend = backend
        self.engine_id = backend.allocate_engine_id()
        world = trainer.world_size
        self._chunks = chunk_bounds(world, min(backend.jobs, world))
        dtype = trainer._layout.dtype  # pool workers compute in the trainer's dtype
        self._grad = SharedArray.create((world, trainer.grad_dim), dtype)
        self._params = SharedArray.create((trainer.grad_dim,), dtype)
        spec = EngineSpec(
            model=trainer.model,
            layout=trainer._layout,
            grad_spec=self._grad.spec(),
            param_spec=self._params.spec(),
        )
        self._workers = backend._ensure_workers(len(self._chunks))
        for worker in self._workers:
            worker.request((BIND, self.engine_id, spec))
        # The trainer's fusion buffer *is* the shared block from here on.
        trainer._grad_matrix = self._grad.array
        self._trainer = trainer
        self._closed = False

    # ------------------------------------------------------------------
    def run_step(
        self, trainer, batches: Sequence[tuple[np.ndarray, np.ndarray]]
    ) -> tuple[list[float], list[dict[str, float]]]:
        """Compute every worker row; returns per-row ``(losses, metrics)``.

        The shared gradient matrix holds each worker's fused gradient on
        return; the caller aggregates it exactly as the serial path does.
        """
        if self._closed:
            raise RuntimeError("step engine is closed")
        trainer._layout.write(self._params.array, trainer.params)
        for worker, (lo, hi) in zip(self._workers, self._chunks):
            worker.conn.send((STEP, self.engine_id, lo, batches[lo:hi]))
        losses: list[float] = []
        metrics: list[dict[str, float]] = []
        error: BaseException | None = None
        for worker in self._workers:
            # Always consume every outstanding reply, even after a
            # failure: an abandoned reply would desync the pool's
            # sequence-number-free request/reply pairing.
            try:
                chunk_losses, chunk_metrics, phases = worker.reply()
            except BaseException as exc:
                if error is None:
                    error = exc
                continue
            losses += chunk_losses
            metrics += chunk_metrics
            if trainer.timer is not None:
                for phase, seconds in phases:
                    trainer.timer.add(phase, seconds)
        if error is not None:
            raise error
        return losses, metrics

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release worker-side bindings and free the shared blocks."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.request((RELEASE, self.engine_id))
            except (OSError, EOFError, BrokenPipeError, RuntimeError):
                pass  # pragma: no cover - pool already torn down
        # Hand the trainer a private copy so the shared block's buffer is
        # no longer exported (an ndarray view would block the unlink) and
        # the trainer stays usable after the engine is gone.
        self._trainer._grad_matrix = np.array(self._grad.array)
        self._trainer = None
        self._grad.close()
        self._params.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


__all__ = ["ProcessStepEngine"]
