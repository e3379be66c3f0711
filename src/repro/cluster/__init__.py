"""Virtual public-cloud GPU cluster substrate.

The paper's testbed is 16 Tencent Cloud instances, each with 8 Tesla
V100-32GB GPUs on NVLink, connected by 25 Gbps Ethernet (paper §5.1,
Table 1).  This package models that environment:

* :mod:`repro.cluster.links` — link specifications (latency ``alpha`` and
  per-byte transfer time ``beta``), with NVLink / PCIe / Ethernet presets.
* :mod:`repro.cluster.topology` — the ``m`` nodes × ``n`` GPUs/node grid,
  rank arithmetic, and device naming.
* :mod:`repro.cluster.cloud_presets` — the three public-cloud instance
  types from Table 1 (AWS p3.16xlarge, Aliyun c10g1.20xlarge, Tencent
  18XLARGE320) plus cluster factory helpers.
* :mod:`repro.cluster.network` — the alpha–beta cost model with NIC
  sharing between concurrent inter-node streams.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.cluster.cloud_presets": [
            "ALIYUN_GN10X",
            "AWS_P3_16XLARGE",
            "CLOUD_INSTANCES",
            "TENCENT_18XLARGE320",
            "CloudInstance",
            "make_cluster",
            "paper_testbed",
        ],
        "repro.cluster.links": [
            "ETHERNET_10G",
            "ETHERNET_25G",
            "ETHERNET_32G",
            "INFINIBAND_100G",
            "LinkSpec",
            "NVLINK_V100",
            "PCIE_GEN3",
        ],
        "repro.cluster.gpu": ["GpuSpec", "V100"],
        "repro.cluster.network": ["NetworkModel"],
        "repro.cluster.topology": ["ClusterTopology"],
        "repro.cluster.variability": ["VariabilityModel", "expected_slowdown"],
    },
)
