"""The DAWNBench case study (§5.6, Tables 4 and 5).

The record run trains ResNet-50 to 93% top-5 in 28 epochs with
progressive resizing (13×96², 11×128², 3×224², 1×288²@bs128), using
MSTopK-SGD for the low-resolution warmup phase (where dense scaling is
poor) and 2DTAR-SGD afterwards (where compute hides the dense
communication and full-precision aggregation protects accuracy).

The simulator composes the iteration model per phase, applies the fitted
accuracy curve, and reports the time-to-93% alongside the published
leaderboard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cluster.network import NetworkModel
from repro.cluster.cloud_presets import paper_testbed
from repro.models.profiles import resnet50_profile
from repro.optim.schedules import ProgressiveResizeSchedule, ResolutionPhase
from repro.perf.calibration import CALIBRATION, Calibration
from repro.perf.iteration_model import IterationModel


@dataclass(frozen=True)
class PhaseResult:
    """One Table 4 row: a resolution phase's throughput."""

    phase: ResolutionPhase
    single_gpu_throughput: float
    system_throughput: float
    scaling_efficiency: float
    seconds: float  # wall time of the whole phase


@dataclass
class DawnbenchResult:
    """Outcome of one simulated record run."""

    phases: list[PhaseResult] = field(default_factory=list)
    total_seconds: float = 0.0
    final_top5: float = 0.0
    epochs: int = 0
    reached_target: bool = False


@dataclass(frozen=True)
class LeaderboardEntry:
    team: str
    date: str
    interconnect: str
    seconds: float


#: The record run's accuracy target: 93 % top-5.
TARGET_TOP5 = 0.93

#: Table 5's published entries (all with 128 Tesla V100 GPUs).
DAWNBENCH_LEADERBOARD: tuple[LeaderboardEntry, ...] = (
    LeaderboardEntry("FastAI", "Sep 2018", "100GbIB", 1086),
    LeaderboardEntry("Huawei", "Dec 2018", "-", 562),
    LeaderboardEntry("Huawei", "May 2019", "100GbIB", 163),
    LeaderboardEntry("Alibaba", "Mar 2020", "32GbE", 158),
)


class DawnbenchSimulator:
    """Simulates the 28-epoch record run on the virtual testbed."""

    def __init__(
        self,
        network: NetworkModel | None = None,
        *,
        schedule: ProgressiveResizeSchedule | None = None,
        cal: Calibration = CALIBRATION,
    ) -> None:
        self.network = network if network is not None else paper_testbed()
        self.schedule = (
            schedule
            if schedule is not None
            else ProgressiveResizeSchedule.dawnbench_28_epoch()
        )
        self.cal = cal
        self.profile = resnet50_profile()

    # -- per-phase throughput (Table 4) -------------------------------------
    def phase_model(self, phase: ResolutionPhase) -> IterationModel:
        return IterationModel(
            network=self.network,
            profile=self.profile,
            scheme=phase.comm_scheme,
            resolution=phase.resolution,
            local_batch=phase.local_batch,
            density=self.cal.training_density,
            use_datacache=True,
            use_pto=True,
            cal=self.cal,
        )

    def phase_result(self, phase: ResolutionPhase) -> PhaseResult:
        model = self.phase_model(phase)
        throughput = model.throughput()
        single = self.profile.single_gpu_throughput(phase.resolution)
        epochs_seconds = (
            phase.epochs * self.cal.imagenet_train_samples / throughput
            + phase.epochs * self.cal.dawnbench_epoch_overhead
        )
        return PhaseResult(
            phase=phase,
            single_gpu_throughput=single,
            system_throughput=throughput,
            scaling_efficiency=throughput / (self.network.world_size * single),
            seconds=epochs_seconds,
        )

    # -- accuracy model --------------------------------------------------------
    def top5_accuracy(self, epoch: int, *, sparse_epochs: int | None = None) -> float:
        """Fitted top-5 curve, crossing 93% between epochs 27 and 28.

        ``sparse_epochs`` beyond the schedule's 13-epoch MSTopK budget
        cost accuracy (§5.6's justification for switching to dense).
        """
        cal = self.cal
        acc = cal.dawnbench_acc_a - cal.dawnbench_acc_b * math.exp(
            -epoch / cal.dawnbench_acc_tau
        )
        if sparse_epochs is not None and sparse_epochs > 13:
            acc -= (sparse_epochs - 13) * cal.sparse_epoch_accuracy_penalty
        return max(0.0, acc)

    # -- the run --------------------------------------------------------------
    def run(self) -> DawnbenchResult:
        result = DawnbenchResult()
        sparse_epochs = sum(
            p.epochs for p in self.schedule.phases if p.comm_scheme == "mstopk"
        )
        for phase in self.schedule.phases:
            result.phases.append(self.phase_result(phase))
        result.total_seconds = sum(p.seconds for p in result.phases)
        result.epochs = self.schedule.total_epochs
        result.final_top5 = self.top5_accuracy(
            result.epochs, sparse_epochs=sparse_epochs
        )
        result.reached_target = result.final_top5 >= TARGET_TOP5
        return result

    def run_all_dense(self) -> DawnbenchResult:
        """Ablation: the same schedule with 2DTAR everywhere."""
        dense_schedule = ProgressiveResizeSchedule(
            phases=tuple(
                ResolutionPhase(p.epochs, p.resolution, p.local_batch, "2dtar")
                for p in self.schedule.phases
            )
        )
        return DawnbenchSimulator(
            self.network, schedule=dense_schedule, cal=self.cal
        ).run()

    def run_all_sparse(self) -> DawnbenchResult:
        """Ablation: MSTopK for all 28 epochs — faster but misses 93%."""
        sparse_schedule = ProgressiveResizeSchedule(
            phases=tuple(
                ResolutionPhase(p.epochs, p.resolution, p.local_batch, "mstopk")
                for p in self.schedule.phases
            )
        )
        return DawnbenchSimulator(
            self.network, schedule=sparse_schedule, cal=self.cal
        ).run()


#: Table 4's published values: resolution -> (single GPU, 128-GPU, SE %).
PAPER_TABLE4: dict[int, tuple[float, float, float]] = {
    96: (4400, 366208, 65.0),
    128: (3010, 269696, 70.0),
    224: (1240, 131712, 83.0),
    288: (710, 72960, 80.0),
}

#: The paper's record time (Table 5, "Ours").
PAPER_RECORD_SECONDS = 151.0


__all__ = [
    "PhaseResult",
    "DawnbenchResult",
    "DawnbenchSimulator",
    "LeaderboardEntry",
    "DAWNBENCH_LEADERBOARD",
    "PAPER_TABLE4",
    "PAPER_RECORD_SECONDS",
]
