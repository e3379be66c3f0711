"""Rank arithmetic of the m x n topology."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.topology import ClusterTopology
from tests.collectives.list_collectives import node_ranks, stream_ranks


class TestTopology:
    def test_world_size(self):
        assert ClusterTopology(16, 8).world_size == 128

    def test_rank_node_major(self):
        topo = ClusterTopology(3, 4)
        assert topo.rank(0, 0) == 0
        assert topo.rank(1, 0) == 4
        assert topo.rank(2, 3) == 11

    @given(m=st.integers(1, 20), n=st.integers(1, 16))
    def test_rank_roundtrip(self, m, n):
        topo = ClusterTopology(m, n)
        for rank in range(topo.world_size):
            node = topo.node_of(rank)
            local = topo.local_rank_of(rank)
            assert topo.rank(node, local) == rank

    def test_node_ranks(self):
        topo = ClusterTopology(2, 4)
        assert node_ranks(topo, 1) == [4, 5, 6, 7]

    def test_stream_ranks(self):
        topo = ClusterTopology(3, 4)
        assert stream_ranks(topo, 2) == [2, 6, 10]

    @given(m=st.integers(1, 8), n=st.integers(1, 8))
    def test_node_and_stream_groups_partition_world(self, m, n):
        topo = ClusterTopology(m, n)
        from_nodes = sorted(r for node in range(m) for r in node_ranks(topo, node))
        from_streams = sorted(r for local in range(n) for r in stream_ranks(topo, local))
        assert from_nodes == list(range(topo.world_size))
        assert from_streams == list(range(topo.world_size))

    def test_same_node(self):
        topo = ClusterTopology(2, 4)
        assert topo.node_of(0) == topo.node_of(3) == 0
        assert topo.node_of(4) == 1
        assert topo.local_rank_of(4) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterTopology(0, 8)
        with pytest.raises(ValueError):
            ClusterTopology(2, 0)
        topo = ClusterTopology(2, 2)
        with pytest.raises(IndexError):
            topo.node_of(4)
        with pytest.raises(IndexError):
            topo.rank(2, 0)
        with pytest.raises(IndexError):
            stream_ranks(topo, 2)
