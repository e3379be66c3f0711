"""Hot-path instrumentation: phase timers and steps/sec measurement.

The vectorised training engine (``(W, d)`` fusion buffer, matrix-native
collectives, batched compression) is only worth its complexity if the
speedup is *measured and tracked*.  This module provides the pieces:

* :class:`PhaseTimer` — a near-zero-overhead accumulator the trainer
  feeds per-step phase timings into (``forward_backward`` / ``fuse`` /
  ``aggregate`` / ``apply``);
* :func:`measure_steps_per_sec` — steps/sec plus the per-phase split
  for one trainer on a fixed set of worker batches
  (``benchmarks/bench_exec_scaling.py`` drives it; the end-to-end step
  cost is tracked by ``train-compute`` / ``train-comm`` in
  ``benchmarks/e2e``).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np


class PhaseTimer:
    """Accumulates named phase durations (seconds) and call counts.

    The trainer guards every timing call with ``if timer is not None``,
    so an un-instrumented run pays nothing; an instrumented run pays two
    ``perf_counter`` calls per phase.  The ``process`` execution backend
    replays its pool workers' ``forward_backward`` / ``fuse`` records
    through :meth:`add`, one per model call: those are *CPU seconds
    across the pool*, and with ``jobs`` workers they can legitimately
    exceed the step's wall-clock.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def add(self, phase: str, seconds: float) -> None:
        """Record one timed occurrence of ``phase``."""
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds
        self.calls[phase] = self.calls.get(phase, 0) + 1

    def summary(self) -> dict[str, float]:
        """Phase → accumulated seconds (insertion order)."""
        return dict(self.seconds)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{k}={v * 1e3:.2f}ms" for k, v in self.seconds.items())
        return f"PhaseTimer({parts})"


@dataclass
class HotPathReport:
    """Steps/sec plus per-phase seconds for one measured configuration."""

    label: str
    steps: int
    seconds_per_step: float
    phase_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def steps_per_sec(self) -> float:
        return 1.0 / self.seconds_per_step if self.seconds_per_step > 0 else 0.0

    def phase_share(self, phase: str) -> float:
        total = sum(self.phase_seconds.values())
        return self.phase_seconds.get(phase, 0.0) / total if total else 0.0


def measure_steps_per_sec(
    trainer,
    batches,
    *,
    steps: int = 20,
    warmup: int = 3,
    label: str = "trainer",
) -> HotPathReport:
    """Median per-step wall-clock (robust to scheduler spikes) + phases."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    for _ in range(warmup):
        trainer.train_step(batches)
    timer = PhaseTimer()
    previous_timer = trainer.timer
    trainer.timer = timer
    samples = []
    try:
        for _ in range(steps):
            start = time.perf_counter()
            trainer.train_step(batches)
            samples.append(time.perf_counter() - start)
    finally:
        trainer.timer = previous_timer
    per_phase = {k: v / steps for k, v in timer.summary().items()}
    return HotPathReport(
        label=label,
        steps=steps,
        seconds_per_step=statistics.median(samples),
        phase_seconds=per_phase,
    )


def worker_batches(x: np.ndarray, y: np.ndarray, world_size: int, local_batch: int):
    """First ``local_batch`` samples of each round-robin shard — the
    fixed per-worker batches the steady-state measurements reuse."""
    from repro.utils.partition import round_robin_shards

    shards = round_robin_shards(np.asarray(x), np.asarray(y), world_size)
    return [(sx[:local_batch], sy[:local_batch]) for sx, sy in shards]


__all__ = [
    "PhaseTimer",
    "HotPathReport",
    "measure_steps_per_sec",
    "worker_batches",
]
