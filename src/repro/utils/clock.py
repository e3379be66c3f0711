"""Virtual-time accounting.

All simulated costs in the reproduction (network transfers, NFS reads,
GPU kernel estimates) are *accounted* against a :class:`VirtualClock`
rather than slept through.  This keeps the benchmark harness fast and
bit-deterministic while still producing the per-component time
breakdowns the paper reports (Figs. 1, 8, 9).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field


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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VirtualClock(now={self.now:.6f}s, categories={len(self.by_category)})"


__all__ = ["VirtualClock"]
