"""Scaling-efficiency sweeps and the paper's §1 motivation claim.

The paper opens with: "128 Nvidia V100 GPUs in Tencent Cloud can only
achieve about 40× speedup compared to a single V100 GPU, which results
in a very low scaling efficiency of 31%" — the number that motivates the
whole system.  :func:`intro_claim` reproduces it from the iteration
model (the TF+Horovod TreeAR baseline without the paper's I/O and PTO
optimisations), and :func:`efficiency_sweep` generalises it into the
efficiency-vs-cluster-size curves that show where each scheme stops
scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.cloud_presets import make_cluster
from repro.models.profiles import ModelProfile, resnet50_profile
from repro.perf.calibration import CALIBRATION, Calibration
from repro.perf.iteration_model import IterationModel


@dataclass(frozen=True)
class EfficiencyPoint:
    """One point of an efficiency-vs-scale curve."""

    num_nodes: int
    world_size: int
    scheme: str
    throughput: float
    speedup: float  # vs one GPU
    efficiency: float  # speedup / world_size


def _model(
    network,
    profile: ModelProfile,
    scheme: str,
    *,
    resolution: int,
    local_batch: int,
    single_gpu: float,
    optimised: bool,
    cal: Calibration,
) -> IterationModel:
    return IterationModel(
        network=network,
        profile=profile,
        scheme=scheme,
        resolution=resolution,
        local_batch=local_batch,
        single_gpu_throughput=single_gpu,
        density=cal.training_density,
        use_datacache=optimised,
        use_pto=optimised,
        cal=cal,
    )


def intro_claim(*, cal: Calibration = CALIBRATION) -> EfficiencyPoint:
    """The §1 motivating number: the baseline's speedup at 128 GPUs.

    TensorFlow + Horovod (TreeAR, no DataCache, serial LARS) training
    ResNet-50/ImageNet on the 16×8 Tencent testbed.  The paper reports
    ~40× speedup (31% efficiency); the model lands in the same regime.
    """
    profile = resnet50_profile()
    network = make_cluster(16, "tencent")
    single_gpu = profile.table3_single_gpu
    model = _model(
        network,
        profile,
        "dense",
        resolution=224,
        local_batch=256,
        single_gpu=single_gpu,
        optimised=False,
        cal=cal,
    )
    throughput = model.throughput()
    speedup = throughput / single_gpu
    return EfficiencyPoint(
        num_nodes=16,
        world_size=128,
        scheme="Dense-SGD (TF+Horovod baseline)",
        throughput=throughput,
        speedup=speedup,
        efficiency=speedup / 128,
    )


def efficiency_sweep(
    node_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
    *,
    profile: ModelProfile | None = None,
    resolution: int = 224,
    local_batch: int = 256,
    schemes: tuple[tuple[str, str, bool], ...] = (
        ("Dense-SGD", "dense", False),
        ("2DTAR-SGD", "2dtar", True),
        ("MSTopK-SGD", "mstopk", True),
    ),
    cal: Calibration = CALIBRATION,
) -> list[EfficiencyPoint]:
    """Efficiency-vs-node-count curves for the given schemes."""
    profile = profile if profile is not None else resnet50_profile()
    single_gpu = (
        profile.table3_single_gpu
        if profile.table3_single_gpu
        else profile.single_gpu_throughput(resolution or None)
    )
    points: list[EfficiencyPoint] = []
    for nodes in node_counts:
        network = make_cluster(nodes, "tencent")
        for label, scheme, optimised in schemes:
            model = _model(
                network,
                profile,
                scheme,
                resolution=resolution,
                local_batch=local_batch,
                single_gpu=single_gpu,
                optimised=optimised,
                cal=cal,
            )
            throughput = model.throughput()
            speedup = throughput / single_gpu
            points.append(
                EfficiencyPoint(
                    num_nodes=nodes,
                    world_size=network.world_size,
                    scheme=label,
                    throughput=throughput,
                    speedup=speedup,
                    efficiency=speedup / network.world_size,
                )
            )
    return points


__all__ = ["EfficiencyPoint", "intro_claim", "efficiency_sweep"]
