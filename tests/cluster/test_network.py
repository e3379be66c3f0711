"""The alpha-beta collective cost closed forms (paper Eqs. 3, 7, 9, 10)."""

import math

import pytest

from repro.cluster.links import LinkSpec
from repro.cluster.network import NetworkModel
from repro.cluster.topology import ClusterTopology

LINK = LinkSpec("test", alpha=1e-4, bandwidth=1e9, efficiency=1.0)


def make_net(m=2, n=4):
    return NetworkModel(ClusterTopology(m, n), intra=LINK, inter=LINK)


class TestClosedForms:
    def test_allgather_eq3(self):
        # alpha * log2(P) + (P - 1) * beta * bytes (paper Eq. 3).
        t = NetworkModel.allgather_time(8, 1e6, LINK)
        expected = 1e-4 * 3 + 7 * 1e-9 * 1e6
        assert t == pytest.approx(expected)

    def test_reduce_scatter_eq7(self):
        # (n-1) alpha + (n-1) (D/n) beta (paper Eq. 7).
        t = NetworkModel.reduce_scatter_time(4, 8e6, LINK)
        expected = 3 * 1e-4 + 3 * 2e6 * 1e-9
        assert t == pytest.approx(expected)

    def test_ring_allreduce_bandwidth_term(self):
        t = NetworkModel.allreduce_ring_time(4, 8e6, LINK)
        expected = 2 * 3 * 1e-4 + 2 * 3 * 2e6 * 1e-9
        assert t == pytest.approx(expected)

    def test_tree_allreduce_log_latency(self):
        t = NetworkModel.allreduce_tree_time(16, 0.0, LINK, traffic_factor=3.0)
        assert t == pytest.approx(2 * 4 * 1e-4)

    def test_single_participant_is_free(self):
        assert NetworkModel.allgather_time(1, 1e9, LINK) == 0.0
        assert NetworkModel.reduce_scatter_time(1, 1e9, LINK) == 0.0
        assert NetworkModel.allreduce_ring_time(1, 1e9, LINK) == 0.0
        assert NetworkModel.allreduce_tree_time(1, 1e9, LINK) == 0.0

    def test_invalid_participants(self):
        with pytest.raises(ValueError):
            NetworkModel.allgather_time(0, 1.0, LINK)
        with pytest.raises(ValueError):
            NetworkModel.reduce_scatter_time(0, 1.0, LINK)


class TestNicSharing:
    def test_shared_link_beta_scales_with_streams(self):
        net = make_net(2, 4)
        shared = net.inter_link_shared(4)
        assert shared.beta == pytest.approx(4 * net.inter.beta)

    def test_inter_allgather_default_streams(self):
        net = make_net(m=4, n=8)
        # Default streams = n: per-stream bandwidth is 1/8 of the NIC.
        t_default = net.inter_allgather_time(1e6)
        t_single = net.inter_allgather_time(1e6, streams=1)
        bandwidth_default = t_default - net.inter.alpha * math.log2(4)
        bandwidth_single = t_single - net.inter.alpha * math.log2(4)
        assert bandwidth_default == pytest.approx(8 * bandwidth_single)

    def test_invalid_streams(self):
        with pytest.raises(ValueError):
            make_net().inter_link_shared(0)


class TestLinkSelection:
    def test_intra_vs_inter_selection(self):
        fast = LinkSpec("fast", alpha=0, bandwidth=1e12)
        slow = LinkSpec("slow", alpha=0, bandwidth=1e6)
        net = NetworkModel(ClusterTopology(2, 2), intra=fast, inter=slow)
        assert net.intra_allgather_time(1e6) == NetworkModel.allgather_time(2, 1e6, fast)
        assert net.intra_reduce_scatter_time(1e6) == NetworkModel.reduce_scatter_time(2, 1e6, fast)
        assert net.inter_allgather_time(1e6, streams=1) == NetworkModel.allgather_time(2, 1e6, slow)
        assert net.intra_allgather_time(1e6) < net.inter_allgather_time(1e6, streams=1)


class TestMonotonicity:
    @pytest.mark.parametrize("p", [2, 4, 8, 16])
    def test_allgather_grows_with_message(self, p):
        small = NetworkModel.allgather_time(p, 1e3, LINK)
        large = NetworkModel.allgather_time(p, 1e6, LINK)
        assert large > small

    def test_hierarchical_helpers_positive(self):
        net = make_net(4, 8)
        assert net.intra_reduce_scatter_time(1e6) > 0
        assert net.intra_allgather_time(1e6) > 0
        assert net.inter_allgather_time(1e6) > 0
