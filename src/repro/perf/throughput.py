"""Table 3: system throughput and scaling efficiency on 128 GPUs.

Four workloads × three algorithms; throughput is ``b · P / t_iter`` and
scaling efficiency is measured against the §5.5.2 single-GPU baselines
(1150 / 560 / 32 samples/s).  The Dense-SGD column models the existing
TreeAR-based system *without* the paper's I/O and PTO optimisations; the
2DTAR and MSTopK columns include them (they are components of the
paper's system).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.network import NetworkModel
from repro.cluster.cloud_presets import paper_testbed
from repro.models.profiles import (
    ModelProfile,
    resnet50_profile,
    transformer_profile,
    vgg19_profile,
)
from repro.perf.calibration import CALIBRATION, Calibration
from repro.perf.iteration_model import IterationModel


@dataclass(frozen=True)
class ThroughputRow:
    """One cell-group of Table 3 (a workload under one scheme)."""

    workload: str
    scheme: str
    throughput: float
    scaling_efficiency: float  # in [0, 1]
    iteration_time: float


#: (label, profile factory, resolution, local batch) — the four rows of
#: Table 3 in paper order.
TABLE3_WORKLOADS: tuple[tuple[str, object, int, int], ...] = (
    ("ResNet-50 (224*224)", resnet50_profile, 224, 256),
    ("ResNet-50 (96*96)", resnet50_profile, 96, 256),
    ("VGG-19", vgg19_profile, 224, 256),
    ("Transformer", transformer_profile, 0, 8),
)

#: Paper-order schemes for the Table 3 columns.
TABLE3_SCHEMES = (
    ("Dense-SGD", "dense"),
    ("2DTAR-SGD", "2dtar"),
    ("MSTopK-SGD", "mstopk"),
)


def _single_gpu_rate(profile: ModelProfile, resolution: int) -> float:
    """Single-GPU rate for the Table 3 baseline.

    The paper's §5.5.2 baselines are resolution-specific only for
    ResNet-50: 1150 samples/s at 224² and the Table 4 rate at 96².
    """
    if profile.name == "ResNet-50" and resolution == 96:
        return profile.single_gpu_throughput(96)
    return profile.table3_single_gpu


def table3_rows(
    network: NetworkModel | None = None,
    *,
    cal: Calibration = CALIBRATION,
) -> list[ThroughputRow]:
    """Compute all 12 Table 3 cells on the paper's testbed."""
    network = network if network is not None else paper_testbed()
    rows: list[ThroughputRow] = []
    for label, factory, resolution, batch in TABLE3_WORKLOADS:
        profile = factory()
        base_rate = _single_gpu_rate(profile, resolution)
        for scheme_label, scheme in TABLE3_SCHEMES:
            dense_baseline = scheme == "dense"
            model = IterationModel(
                network=network,
                profile=profile,
                scheme=scheme,
                resolution=resolution,
                local_batch=batch,
                single_gpu_throughput=base_rate,
                density=cal.training_density,
                use_datacache=not dense_baseline,
                use_pto=not dense_baseline,
                cal=cal,
            )
            rows.append(
                ThroughputRow(
                    workload=label,
                    scheme=scheme_label,
                    throughput=model.throughput(),
                    scaling_efficiency=model.scaling_efficiency(base_rate),
                    iteration_time=model.iteration_time(),
                )
            )
    return rows


#: The published Table 3 values, for paper-vs-measured reporting:
#: workload -> scheme -> (throughput samples/s, scaling efficiency %).
PAPER_TABLE3: dict[str, dict[str, tuple[float, float]]] = {
    "ResNet-50 (224*224)": {
        "Dense-SGD": (64000, 43.5),
        "2DTAR-SGD": (134656, 91.4),
        "MSTopK-SGD": (133376, 90.6),
    },
    "ResNet-50 (96*96)": {
        "Dense-SGD": (113280, 20.1),
        "2DTAR-SGD": (313600, 56.7),
        "MSTopK-SGD": (396800, 70.5),
    },
    "VGG-19": {
        "Dense-SGD": (17920, 25.0),
        "2DTAR-SGD": (47616, 66.4),
        "MSTopK-SGD": (57600, 80.4),
    },
    "Transformer": {
        "Dense-SGD": (678, 16.5),
        "2DTAR-SGD": (2534, 61.6),
        "MSTopK-SGD": (3502, 87.8),
    },
}


__all__ = [
    "ThroughputRow",
    "table3_rows",
    "TABLE3_WORKLOADS",
    "TABLE3_SCHEMES",
    "PAPER_TABLE3",
]
