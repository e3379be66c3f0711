"""Membership view: topology re-derivation and residual folding.

Includes the non-divisible shrink/grow cases the elastic trainer relies
on: an 8x4 cluster losing a node must yield a *valid* 7x4 HiTopKComm
hierarchy (stream groups, node groups, shard-compatible residuals) even
though 7 is not a power of two and shard sizes are uneven.
"""

import numpy as np
import pytest

from repro.cluster.topology import ClusterTopology
from repro.comm.hitopkcomm import HiTopKComm
from repro.elastic.membership import MembershipView, fold_residuals
from repro.utils.partition import chunk_bounds
from repro.utils.seeding import new_rng
from tests.collectives.list_collectives import node_ranks, stream_ranks


class TestMembershipView:
    def test_initial_state(self):
        view = MembershipView(4, 2)
        assert view.live_nodes == (0, 1, 2, 3)
        assert view.world_size == 8
        assert view.epoch == 0

    def test_revoke_renumbers_densely(self):
        view = MembershipView(4, 2)
        view.revoke(1)
        assert view.live_nodes == (0, 2, 3)
        topo = view.topology()
        assert topo.num_nodes == 3 and topo.world_size == 6
        assert view.node_index(2) == 1  # dense index shifted down
        assert view.epoch == 1

    def test_revoke_default_picks_youngest(self):
        view = MembershipView(3, 2)
        assert view.revoke() == 2

    def test_revoke_with_rng_picks_live_node(self):
        view = MembershipView(5, 2)
        victim = view.revoke(rng=new_rng(0))
        assert victim not in view.live_nodes

    def test_revoke_below_min_rejected(self):
        view = MembershipView(2, 2, min_nodes=2)
        with pytest.raises(ValueError, match="min_nodes"):
            view.revoke()

    def test_revoke_dead_node_rejected(self):
        view = MembershipView(3, 2)
        view.revoke(1)
        with pytest.raises(KeyError):
            view.revoke(1)

    def test_join_gets_fresh_id(self):
        view = MembershipView(3, 2)
        view.revoke(2)
        new_id = view.join()
        assert new_id == 3  # ids are never recycled
        assert view.live_nodes == (0, 1, 3)
        assert view.world_size == 6

    def test_network_uses_preset_links(self):
        view = MembershipView(2, 4, instance="aws")
        net = view.network()
        assert net.topology.world_size == 8
        assert "AWS" in net.inter.name

    def test_reshard_tracks_world_size(self):
        view = MembershipView(3, 2)
        x, y = np.arange(60).reshape(30, 2), np.arange(30)
        assert len(view.reshard(x, y)) == 6
        view.revoke()
        shards = view.reshard(x, y)
        assert len(shards) == 4
        assert sum(len(sx) for sx, _ in shards) == 30


class TestHierarchyRederivation:
    """World-size changes must produce valid HiTopKComm hierarchies."""

    @pytest.mark.parametrize("old_m,new_m", [(8, 7), (7, 9), (8, 5)])
    def test_shrink_grow_non_divisible(self, old_m, new_m):
        n = 4
        view = MembershipView(old_m, n)
        while view.num_nodes > new_m:
            view.revoke()
        while view.num_nodes < new_m:
            view.join()
        net = view.network()
        topo = net.topology
        assert topo.num_nodes == new_m and topo.gpus_per_node == n
        # The stream/node group decomposition covers every rank once.
        from_streams = sorted(r for local in range(n) for r in stream_ranks(topo, local))
        from_nodes = sorted(r for node in range(new_m) for r in node_ranks(topo, node))
        assert from_streams == from_nodes == list(range(new_m * n))

        # A rebuilt scheme aggregates correctly at the new world size.
        scheme = HiTopKComm(net, density=0.5)
        rng = new_rng(1)
        grads = rng.normal(size=(topo.world_size, 37))  # 37 % 4 != 0
        result = scheme.aggregate(grads, rng=rng)
        assert result.aggregate.shape == (37,)
        assert len(scheme.ef) == topo.world_size


class TestFoldResiduals:
    def _shard_residuals(self, topo: ClusterTopology, d: int, rng) -> dict:
        bounds = chunk_bounds(d, topo.gpus_per_node)
        residuals = {}
        for rank in range(topo.world_size):
            start, end = bounds[topo.local_rank_of(rank)]
            residuals[rank] = rng.normal(size=end - start)
        return residuals

    def test_shrink_preserves_mass_8x4_to_7x4(self, rng):
        d = 37  # uneven shards: chunk sizes 10, 9, 9, 9
        old = ClusterTopology(8, 4)
        new = ClusterTopology(7, 4)
        residuals = self._shard_residuals(old, d, rng)
        total_before = sum(float(np.sum(r)) for r in residuals.values())
        folded = fold_residuals(residuals, old, new)
        assert set(folded) == set(range(new.world_size))
        total_after = sum(float(np.sum(r)) for r in folded.values())
        assert total_after == pytest.approx(total_before)
        # Shapes stay shard-compatible (n unchanged -> same chunk split).
        bounds = chunk_bounds(d, 4)
        for rank, buf in folded.items():
            start, end = bounds[new.local_rank_of(rank)]
            assert buf.shape == (end - start,)
        # Node 7's buffers folded onto node 0 (7 % 7 == 0): doubled mass.
        for local in range(4):
            np.testing.assert_allclose(
                folded[new.rank(0, local)],
                residuals[old.rank(0, local)] + residuals[old.rank(7, local)],
            )

    def test_grow_keeps_buffers_and_leaves_new_ranks_empty(self, rng):
        old = ClusterTopology(7, 4)
        new = ClusterTopology(8, 4)
        residuals = self._shard_residuals(old, 37, rng)
        folded = fold_residuals(residuals, old, new)
        assert set(folded) == set(range(old.world_size))  # newcomers start clean
        for rank, buf in residuals.items():
            np.testing.assert_array_equal(folded[rank], buf)

    def test_flat_full_d_residuals_fold_by_rank(self, rng):
        old = ClusterTopology(4, 2)
        new = ClusterTopology(3, 2)
        residuals = {rank: rng.normal(size=50) for rank in range(8)}
        folded = fold_residuals(residuals, old, new)
        assert set(folded) == set(range(6))
        np.testing.assert_allclose(folded[0], residuals[0] + residuals[6])
        np.testing.assert_allclose(folded[2], residuals[2])

    def test_gpus_per_node_change_rejected(self, rng):
        with pytest.raises(ValueError, match="gpus_per_node"):
            fold_residuals({}, ClusterTopology(4, 4), ClusterTopology(4, 2))

    def test_string_keys_pass_through(self, rng):
        buf = rng.normal(size=5)
        folded = fold_residuals(
            {"custom": buf}, ClusterTopology(2, 2), ClusterTopology(1, 2)
        )
        np.testing.assert_array_equal(folded["custom"], buf)
        assert folded["custom"] is not buf  # defensive copy
