"""Per-step virtual-time breakdowns.

The paper reports component times rather than single totals in Fig. 1
(I/O, FF&BP, compression, communication, LARS) and Fig. 8 (the four
HiTopKComm steps); :class:`TimeBreakdown` is the container all schemes
and the iteration model share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.units import format_seconds


@dataclass
class TimeBreakdown:
    """Ordered mapping of step name → virtual seconds."""

    steps: dict[str, float] = field(default_factory=dict)

    def add(self, name: str, seconds: float) -> "TimeBreakdown":
        """Accumulate ``seconds`` into step ``name`` (creates it if new)."""
        if seconds < 0:
            raise ValueError(f"negative time {seconds} for step {name!r}")
        self.steps[name] = self.steps.get(name, 0.0) + seconds
        return self

    def get(self, name: str) -> float:
        return self.steps.get(name, 0.0)

    @property
    def total(self) -> float:
        return sum(self.steps.values())

    def scaled(self, factor: float) -> "TimeBreakdown":
        """A new breakdown with every step multiplied by ``factor``."""
        if factor < 0:
            raise ValueError(f"factor must be non-negative, got {factor}")
        return TimeBreakdown({k: v * factor for k, v in self.steps.items()})

    def fraction(self, name: str) -> float:
        """Share of the total attributable to one step (0 if total is 0)."""
        total = self.total
        if total == 0:
            return 0.0
        return self.get(name) / total

    def items(self):
        return self.steps.items()

    def __getitem__(self, name: str) -> float:
        return self.steps[name]

    def __contains__(self, name: str) -> bool:
        return name in self.steps

    def format(self) -> str:
        """Multi-line human-readable rendering."""
        lines = [f"  {name:<18s} {format_seconds(t)}" for name, t in self.steps.items()]
        lines.append(f"  {'total':<18s} {format_seconds(self.total)}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v:.4g}s" for k, v in self.steps.items())
        return f"TimeBreakdown({inner}, total={self.total:.4g}s)"


__all__ = ["TimeBreakdown"]
