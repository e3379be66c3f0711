"""The input-resolution schedule of the DAWNBench recipe (§5.6):
13 epochs at 96², 11 at 128², 3 at 224², 1 at 288² with halved batch
size, switching from MSTopK to 2DTAR after the first phase.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ResolutionPhase:
    """One phase of a progressive-resizing schedule (one Table 4 row)."""

    epochs: int
    resolution: int
    local_batch: int
    comm_scheme: str  # "mstopk" or "2dtar" — §5.6 switches mid-run

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.resolution < 1:
            raise ValueError(f"resolution must be >= 1, got {self.resolution}")
        if self.local_batch < 1:
            raise ValueError(f"local_batch must be >= 1, got {self.local_batch}")


@dataclass(frozen=True)
class ProgressiveResizeSchedule:
    """The DAWNBench 28-epoch recipe (§5.6, Table 4).

    "we use MSTopK-SGD to train the model in the first 13 epochs ...
    After that, we switch to use 2DTAR-SGD to balance the convergence
    speed and the system throughput."
    """

    phases: tuple[ResolutionPhase, ...]

    @property
    def total_epochs(self) -> int:
        return sum(p.epochs for p in self.phases)

    @staticmethod
    def dawnbench_28_epoch() -> "ProgressiveResizeSchedule":
        """The paper's record run schedule (Table 4)."""
        return ProgressiveResizeSchedule(
            phases=(
                ResolutionPhase(13, 96, 256, "mstopk"),
                ResolutionPhase(11, 128, 256, "2dtar"),
                ResolutionPhase(3, 224, 256, "2dtar"),
                ResolutionPhase(1, 288, 128, "2dtar"),
            )
        )


__all__ = [
    "ResolutionPhase",
    "ProgressiveResizeSchedule",
]
