"""Public-cloud instance presets (paper Table 1) and cluster factories.

Table 1 of the paper lists three 8×V100 cloud instance types.  We encode
them here together with their storage tier characteristics, and provide
factories for the paper's testbed (16 × Tencent 18XLARGE320).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.links import LinkSpec, NVLINK_V100
from repro.cluster.network import NetworkModel
from repro.cluster.topology import ClusterTopology
from repro.utils.units import gbps_to_bytes_per_sec


@dataclass(frozen=True)
class StorageTier:
    """A (networked) storage service attached to a cloud instance.

    ``bandwidth`` is the sustained sequential-read bandwidth seen by one
    instance; ``latency`` is the per-request latency.  These drive the
    DataCache experiments (paper §4.1, Fig. 9).
    """

    name: str
    bandwidth: float  # bytes / second
    latency: float  # seconds per request


@dataclass(frozen=True)
class CloudInstance:
    """One row of paper Table 1 (an 8×V100 cloud computing instance)."""

    cloud: str
    instance: str
    memory_gib: int
    storage_type: str
    network_gbps: int
    gpus: int = 8
    gpu_model: str = "Tesla V100-32GB"
    intra_link: LinkSpec = NVLINK_V100
    nfs: StorageTier = StorageTier("generic-nfs", 400e6, 2e-3)

    @property
    def inter_link(self) -> LinkSpec:
        return LinkSpec(
            name=f"{self.network_gbps} GbE ({self.cloud})",
            alpha=4e-5,
            bandwidth=gbps_to_bytes_per_sec(self.network_gbps),
            efficiency=0.9,
        )


# Networked file system tiers.  Cloud NFS offerings deliver a few hundred
# MB/s per client with millisecond-scale request latency; the exact
# figures are per-product ballparks (the paper only states that NFS
# "reading performance may be limited by the network bandwidth and
# latency", §4.1).
EBS_TIER = StorageTier("EBS (gp2)", bandwidth=250e6, latency=1.5e-3)
OSS_TIER = StorageTier("OSS", bandwidth=300e6, latency=2.5e-3)
CFS_TIER = StorageTier("CFS", bandwidth=300e6, latency=2.0e-3)

AWS_P3_16XLARGE = CloudInstance(
    cloud="AWS",
    instance="p3.16xlarge",
    memory_gib=488,
    storage_type="EBS",
    network_gbps=25,
    nfs=EBS_TIER,
)

ALIYUN_GN10X = CloudInstance(
    cloud="Aliyun",
    instance="c10g1.20xlarge",
    memory_gib=336,
    storage_type="OSS",
    network_gbps=32,
    nfs=OSS_TIER,
)

TENCENT_18XLARGE320 = CloudInstance(
    cloud="Tencent",
    instance="18XLARGE320",
    memory_gib=320,
    storage_type="CFS",
    network_gbps=25,
    nfs=CFS_TIER,
)

CLOUD_INSTANCES: dict[str, CloudInstance] = {
    "aws": AWS_P3_16XLARGE,
    "aliyun": ALIYUN_GN10X,
    "tencent": TENCENT_18XLARGE320,
}


def make_cluster(
    num_nodes: int,
    instance: CloudInstance | str = "tencent",
    *,
    gpus_per_node: int | None = None,
) -> NetworkModel:
    """Build a :class:`NetworkModel` for ``num_nodes`` cloud instances.

    Parameters
    ----------
    num_nodes:
        Number of instances (nodes).
    instance:
        A :class:`CloudInstance`, or any name/alias registered in the
        cluster registry (``repro.api.CLUSTERS``; the built-ins are
        ``aws`` / ``aliyun`` / ``tencent``).
    gpus_per_node:
        Override the instance GPU count (e.g. for small test clusters).
    """
    if isinstance(instance, str):
        # Resolve through the cluster registry (repro.api), so presets
        # registered via @register_cluster work everywhere; imported
        # lazily because the registry seeds itself from this module.
        from repro.api.registry import get_cluster

        instance = get_cluster(instance)
    topo = ClusterTopology(num_nodes, gpus_per_node or instance.gpus)
    return NetworkModel(
        topology=topo,
        intra=instance.intra_link,
        inter=instance.inter_link,
    )


def paper_testbed() -> NetworkModel:
    """The paper's testbed: 16 Tencent instances, 128 V100s, 25 GbE (§5.1)."""
    return make_cluster(16, TENCENT_18XLARGE320)


def table1_rows() -> list[tuple[str, str, int, str, int]]:
    """Rows of paper Table 1, in paper order."""
    return [
        (inst.cloud, inst.instance, inst.memory_gib, inst.storage_type, inst.network_gbps)
        for inst in (AWS_P3_16XLARGE, ALIYUN_GN10X, TENCENT_18XLARGE320)
    ]


__all__ = [
    "StorageTier",
    "CloudInstance",
    "EBS_TIER",
    "OSS_TIER",
    "CFS_TIER",
    "AWS_P3_16XLARGE",
    "ALIYUN_GN10X",
    "TENCENT_18XLARGE320",
    "CLOUD_INSTANCES",
    "make_cluster",
    "paper_testbed",
    "table1_rows",
]
