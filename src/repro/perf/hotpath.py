"""Hot-path instrumentation: the trainer's phase timer.

:class:`PhaseTimer` is a near-zero-overhead accumulator the trainer
feeds per-step phase timings into (``forward_backward`` / ``fuse`` /
``aggregate`` / ``apply``).  The end-to-end step cost is measured by
the ``train-compute`` / ``train-comm`` workloads in ``benchmarks/e2e``.
"""

from __future__ import annotations


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


__all__ = ["PhaseTimer"]
