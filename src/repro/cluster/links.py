"""Interconnect link specifications.

A link is described by the classic alpha–beta model: transferring a
message of ``s`` bytes costs ``alpha + s * beta`` seconds, where
``alpha`` is the fixed per-message latency and ``beta`` the per-byte
transfer time (the reciprocal of bandwidth).  The paper's cost analysis
(§3.2, Eqs. 3 and 7–10) distinguishes ``alpha_intra/beta_intra``
(NVLink, inside a node) from ``alpha_inter/beta_inter`` (Ethernet,
between nodes); this module provides the concrete numbers.

Bandwidth values are *effective* achievable bandwidths rather than spec
sheet peaks — e.g. 25 GbE sustains roughly 2.9 GB/s of goodput for large
messages in a VM (no RDMA on the paper's Tencent Cloud testbed).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.units import gbps_to_bytes_per_sec


@dataclass(frozen=True)
class LinkSpec:
    """An alpha–beta link description.

    Parameters
    ----------
    name:
        Human-readable identifier.
    alpha:
        Per-message latency in seconds.
    bandwidth:
        Achievable bandwidth in bytes/second.
    efficiency:
        Fraction of ``bandwidth`` realised by collective traffic
        (protocol overhead, virtualisation, imperfect pipelining).
        The *effective* per-byte time is ``1 / (bandwidth * efficiency)``.
    """

    name: str
    alpha: float
    bandwidth: float
    efficiency: float = 1.0

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if not 0 < self.efficiency <= 1:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")

    @property
    def beta(self) -> float:
        """Effective transfer time per byte (seconds/byte)."""
        return 1.0 / (self.bandwidth * self.efficiency)

    def scaled(self, share: float) -> "LinkSpec":
        """A copy of this link with only ``share`` of the bandwidth.

        Used to model NIC sharing: when ``n`` concurrent streams cross
        one node NIC, each sees ``scaled(1 / n)``.
        """
        if not 0 < share <= 1:
            raise ValueError(f"share must be in (0, 1], got {share}")
        return LinkSpec(
            name=f"{self.name}/share={share:.3g}",
            alpha=self.alpha,
            bandwidth=self.bandwidth * share,
            efficiency=self.efficiency,
        )


# ---------------------------------------------------------------------------
# Presets.
#
# alpha values: NVLink latency is a few microseconds end to end through
# NCCL; cloud Ethernet (VPC, no RDMA) has tens-of-microseconds latency.
# Bandwidths: NVLink on a V100 (NVLink2) gives ~20-25 GB/s effective per
# peer pair through NCCL rings inside an 8-GPU hybrid-cube-mesh; 25 GbE
# gives 3.125 GB/s raw.  Efficiencies reflect typical measured goodput.
# ---------------------------------------------------------------------------

NVLINK_V100 = LinkSpec(
    name="NVLink (V100, NCCL ring)",
    alpha=5e-6,
    bandwidth=20e9,
    efficiency=0.9,
)

PCIE_GEN3 = LinkSpec(
    name="PCIe Gen3 x16",
    alpha=8e-6,
    bandwidth=12e9,
    efficiency=0.85,
)

ETHERNET_10G = LinkSpec(
    name="10 GbE (VPC)",
    alpha=4e-5,
    bandwidth=gbps_to_bytes_per_sec(10),
    efficiency=0.9,
)

ETHERNET_25G = LinkSpec(
    name="25 GbE (VPC)",
    alpha=4e-5,
    bandwidth=gbps_to_bytes_per_sec(25),
    efficiency=0.9,
)

ETHERNET_32G = LinkSpec(
    name="32 GbE (VPC)",
    alpha=4e-5,
    bandwidth=gbps_to_bytes_per_sec(32),
    efficiency=0.9,
)

INFINIBAND_100G = LinkSpec(
    name="100 Gb InfiniBand",
    alpha=2e-6,
    bandwidth=gbps_to_bytes_per_sec(100),
    efficiency=0.95,
)

PRESET_LINKS: dict[str, LinkSpec] = {
    "nvlink": NVLINK_V100,
    "pcie": PCIE_GEN3,
    "10gbe": ETHERNET_10G,
    "25gbe": ETHERNET_25G,
    "32gbe": ETHERNET_32G,
    "100gbib": INFINIBAND_100G,
}


__all__ = [
    "LinkSpec",
    "NVLINK_V100",
    "PCIE_GEN3",
    "ETHERNET_10G",
    "ETHERNET_25G",
    "ETHERNET_32G",
    "INFINIBAND_100G",
    "PRESET_LINKS",
]
