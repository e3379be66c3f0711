"""LinkSpec alpha-beta semantics."""

import pytest

from repro.cluster.cloud_presets import CLOUD_INSTANCES
from repro.cluster.links import (
    ETHERNET_10G,
    ETHERNET_25G,
    ETHERNET_32G,
    INFINIBAND_100G,
    PRESET_LINKS,
    LinkSpec,
    NVLINK_V100,
)
from repro.cluster.network import NetworkModel


class TestLinkSpec:
    def test_beta_is_inverse_effective_bandwidth(self):
        link = LinkSpec("t", alpha=1e-5, bandwidth=1e9, efficiency=0.5)
        assert link.beta == pytest.approx(2e-9)

    def test_transfer_time_alpha_beta(self):
        # A two-rank All-Gather is one hop: alpha + beta * bytes.
        link = LinkSpec("t", alpha=1e-5, bandwidth=1e9)
        assert NetworkModel.allgather_time(2, 1e6, link) == pytest.approx(1e-5 + 1e-3)

    def test_zero_bytes_pays_only_latency(self):
        assert NetworkModel.allgather_time(2, 0, ETHERNET_25G) == ETHERNET_25G.alpha

    def test_scaled_shares_bandwidth(self):
        shared = ETHERNET_25G.scaled(0.25)
        assert shared.beta == pytest.approx(4 * ETHERNET_25G.beta)
        assert shared.alpha == ETHERNET_25G.alpha

    def test_scaled_invalid_share(self):
        with pytest.raises(ValueError):
            ETHERNET_25G.scaled(0.0)
        with pytest.raises(ValueError):
            ETHERNET_25G.scaled(1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkSpec("t", alpha=-1, bandwidth=1)
        with pytest.raises(ValueError):
            LinkSpec("t", alpha=0, bandwidth=0)
        with pytest.raises(ValueError):
            LinkSpec("t", alpha=0, bandwidth=1, efficiency=0)


class TestPresets:
    def test_hierarchy_gap(self):
        # NVLink must be much faster than 25GbE — the asymmetry the whole
        # paper is about.
        assert NVLINK_V100.beta * 4 < ETHERNET_25G.beta

    def test_faster_fabrics_cost_less_per_byte(self):
        ladder = [ETHERNET_10G, ETHERNET_25G, ETHERNET_32G, INFINIBAND_100G]
        betas = [link.beta for link in ladder]
        assert betas == sorted(betas, reverse=True)
        assert set(ladder) <= set(PRESET_LINKS.values())

    @pytest.mark.parametrize(
        ("cloud", "preset"), [("aws", "25gbe"), ("aliyun", "32gbe"), ("tencent", "25gbe")]
    )
    def test_each_cloud_inter_link_is_its_ethernet_preset(self, cloud, preset):
        # Table 1: AWS and Tencent ship 25 GbE, Aliyun 32 GbE.
        inter = CLOUD_INSTANCES[cloud].inter_link
        assert inter.beta == PRESET_LINKS[preset].beta
        assert inter.alpha == PRESET_LINKS[preset].alpha
        assert CLOUD_INSTANCES[cloud].intra_link is PRESET_LINKS["nvlink"]
