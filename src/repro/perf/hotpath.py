"""Hot-path instrumentation: phase timers and steps/sec measurement.

The vectorised training engine (``(W, d)`` fusion buffer, matrix-native
collectives, batched compression) is only worth its complexity if the
speedup is *measured and tracked*.  This module provides the pieces:

* :class:`PhaseTimer` — a near-zero-overhead accumulator the trainer
  feeds per-step phase timings into (``forward_backward`` / ``fuse`` /
  ``aggregate`` / ``apply``);
* :func:`measure_steps_per_sec` — steps/sec plus the per-phase split
  for one trainer on a fixed set of worker batches;
* :func:`compare_hotpaths` — A/B of the vectorised engine against the
  faithful pre-vectorisation reference (``legacy_hotpath`` trainer path
  + :func:`repro.models.autodiff.legacy_conv_kernels`), alternating
  single steps so CPU-frequency drift hits both paths equally.

``benchmarks/bench_perf_hotpath.py`` drives this and emits the
``BENCH_perf_hotpath.json`` payload the CI perf gate tracks.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.models.autodiff import legacy_conv_kernels


class PhaseTimer:
    """Accumulates named phase durations (seconds) and call counts.

    The trainer guards every timing call with ``if timer is not None``,
    so an un-instrumented run pays nothing; an instrumented run pays two
    ``perf_counter`` calls per phase.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def add(self, phase: str, seconds: float) -> None:
        """Record one timed occurrence of ``phase``."""
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds
        self.calls[phase] = self.calls.get(phase, 0) + 1

    @contextmanager
    def phase(self, name: str):
        """Context-manager sugar around :meth:`add`."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def merge(self, other, *, calls: dict[str, int] | None = None) -> None:
        """Fold another timer's phases into this one.

        ``other`` is a :class:`PhaseTimer` or a plain ``phase ->
        seconds`` mapping; ``calls`` optionally carries the matching
        call counts (defaults to the other timer's counts, or 1 per
        phase for a bare mapping).

        (Off-process compute needs no merge: the ``process`` execution
        backend replays its pool workers' ``forward_backward`` / ``fuse``
        records through :meth:`add`, one per model call.  Those are *CPU
        seconds across the pool* — with ``jobs`` workers they can
        legitimately exceed the step's wall-clock.)
        """
        if isinstance(other, PhaseTimer):
            seconds = other.seconds
            if calls is None:
                calls = other.calls
        else:
            seconds = dict(other)
        for phase, value in seconds.items():
            self.seconds[phase] = self.seconds.get(phase, 0.0) + value
            self.calls[phase] = self.calls.get(phase, 0) + (
                calls.get(phase, 1) if calls else 1
            )

    def reset(self) -> None:
        self.seconds.clear()
        self.calls.clear()

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    def summary(self) -> dict[str, float]:
        """Phase → accumulated seconds (insertion order)."""
        return dict(self.seconds)

    def shares(self) -> dict[str, float]:
        """Phase → fraction of the instrumented total."""
        total = self.total
        if total <= 0.0:
            return {k: 0.0 for k in self.seconds}
        return {k: v / total for k, v in self.seconds.items()}

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


@dataclass
class HotPathComparison:
    """A/B result: the vectorised engine vs the legacy reference."""

    vectorized: HotPathReport
    legacy: HotPathReport

    @property
    def speedup(self) -> float:
        return self.vectorized.steps_per_sec / self.legacy.steps_per_sec


def compare_hotpaths(
    make_trainer,
    batches,
    *,
    steps: int = 30,
    warmup: int = 3,
) -> HotPathComparison:
    """Measure vectorised vs pre-vectorisation steps/sec, interleaved.

    ``make_trainer(legacy_hotpath: bool)`` must build a fresh trainer
    for each path.  Steps alternate one-by-one between the two trainers
    so slow drifts (CPU frequency scaling, noisy neighbours) cancel in
    the ratio; per-path medians are reported.  The legacy trainer runs
    under :func:`legacy_conv_kernels` so its model compute matches the
    pre-vectorisation commit, not just its aggregation path.
    """
    fast = make_trainer(legacy_hotpath=False)
    slow = make_trainer(legacy_hotpath=True)
    for _ in range(warmup):
        fast.train_step(batches)
        with legacy_conv_kernels():
            slow.train_step(batches)

    fast_timer, slow_timer = PhaseTimer(), PhaseTimer()
    fast.timer, slow.timer = fast_timer, slow_timer
    fast_samples, slow_samples = [], []
    for _ in range(steps):
        start = time.perf_counter()
        fast.train_step(batches)
        fast_samples.append(time.perf_counter() - start)
        with legacy_conv_kernels():
            start = time.perf_counter()
            slow.train_step(batches)
            slow_samples.append(time.perf_counter() - start)
    fast.timer = slow.timer = None

    return HotPathComparison(
        vectorized=HotPathReport(
            label="vectorized",
            steps=steps,
            seconds_per_step=statistics.median(fast_samples),
            phase_seconds={k: v / steps for k, v in fast_timer.summary().items()},
        ),
        legacy=HotPathReport(
            label="legacy",
            steps=steps,
            seconds_per_step=statistics.median(slow_samples),
            phase_seconds={k: v / steps for k, v in slow_timer.summary().items()},
        ),
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
    "HotPathComparison",
    "measure_steps_per_sec",
    "compare_hotpaths",
    "worker_batches",
]
