"""Streaming statistics used by timing harnesses.

Welford's online algorithm keeps running mean/variance without storing
samples — the benchmark harnesses repeat each measurement (the paper
uses "5 warmup iterations and 100 iterations to measure the average",
Fig. 6 caption) and report mean ± std.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable


@dataclass
class RunningStat:
    """Welford online mean/variance accumulator."""

    count: int = 0
    mean: float = 0.0
    _m2: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def extend(self, values: Iterable[float]) -> None:
        for v in values:
            self.add(v)

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1); zero for fewer than two samples."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def total(self) -> float:
        return self.mean * self.count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RunningStat(n={self.count}, mean={self.mean:.6g}, "
            f"std={self.std:.3g}, min={self.min:.6g}, max={self.max:.6g})"
        )


__all__ = ["RunningStat"]
