"""Virtual-time accounting.

All simulated costs in the reproduction (network transfers, NFS reads,
GPU kernel estimates) are *accounted* against a :class:`VirtualClock`
rather than slept through.  This keeps the benchmark harness fast and
bit-deterministic while still producing the per-component time
breakdowns the paper reports (Figs. 1, 8, 9).
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class VirtualClock:
    """Accumulates virtual seconds, optionally split by category.

    The clock is additive: concurrent activities are modelled by the
    *caller* (e.g. a collective charges ``max`` over parallel streams and
    then advances the clock once).
    """

    now: float = 0.0
    by_category: dict[str, float] = field(default_factory=lambda: defaultdict(float))

    def advance(self, seconds: float, category: str = "other") -> float:
        """Advance virtual time by ``seconds`` and return the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time {seconds}")
        self.now += seconds
        self.by_category[category] += seconds
        return self.now

    def elapsed(self, category: str | None = None) -> float:
        """Total virtual seconds, or seconds charged to one category."""
        if category is None:
            return self.now
        return self.by_category.get(category, 0.0)

    @contextmanager
    def window(self) -> Iterator["ClockWindow"]:
        """Context manager measuring virtual time spent inside the block."""
        win = ClockWindow(self, self.now)
        yield win
        win.close()

    def snapshot(self) -> dict[str, float]:
        """Copy of the per-category totals (for reporting)."""
        return dict(self.by_category)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VirtualClock(now={self.now:.6f}s, categories={len(self.by_category)})"


@dataclass
class ClockWindow:
    """Elapsed-time window over a :class:`VirtualClock`."""

    clock: VirtualClock
    start: float
    end: float | None = None

    def close(self) -> float:
        self.end = self.clock.now
        return self.duration

    @property
    def duration(self) -> float:
        end = self.end if self.end is not None else self.clock.now
        return end - self.start


__all__ = ["VirtualClock", "ClockWindow"]
