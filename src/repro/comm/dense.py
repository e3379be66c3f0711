"""Dense aggregation schemes: flat ring, TreeAR, and 2DTAR.

These are the baselines of the paper's Fig. 7 and the "Dense-SGD" /
"2DTAR-SGD" columns of Table 3.  All three produce the exact global sum;
they differ only in schedule, and therefore in how much traffic crosses
the slow inter-node links and how many latency terms they pay.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.network import NetworkModel
from repro.collectives.all_reduce import (
    matrix_ring_allreduce,
    matrix_torus_allreduce_2d,
    matrix_tree_allreduce,
)
from repro.comm.base import AggregationResult, CommScheme
from repro.comm.breakdown import TimeBreakdown
from repro.utils.seeding import RandomState

#: Tree edges sharing each NIC in NCCL 2.5's ring-ordered tree (Fig. 7's
#: TreeAR calibration).
TREE_NIC_CONTENTION = 2.0


class RingAllReduce(CommScheme):
    """Flat ring all-reduce across all ``P`` GPUs (Baidu 2017).

    With node-major rank order only one GPU per node talks across the
    NIC at each step, so the bandwidth term is
    ``2 (P-1)/P * D * beta_inter`` — near-optimal volume, but the scheme
    pays ``2 (P-1)`` latency terms, which hurts at small tensors on
    high-latency VPC networks.
    """

    name = "RingAR"
    dense = True

    def __init__(self, network: NetworkModel, *, wire_bytes: int = 4) -> None:
        super().__init__(network)
        self.wire_bytes = wire_bytes

    def aggregate(
        self, worker_grads: np.ndarray, *, rng: RandomState | None = None
    ) -> AggregationResult:
        mat = self._worker_matrix(worker_grads)
        full = matrix_ring_allreduce(mat)
        d = mat.shape[1]
        return AggregationResult(
            aggregate=full,
            breakdown=self.time_model(d),
            inter_bytes=2.0 * d * self.wire_bytes,
            intra_bytes=2.0 * d * self.wire_bytes,
        )

    def time_model(self, d: int) -> TimeBreakdown:
        nbytes = d * self.wire_bytes
        # A single-node "cluster" rings over NVLink only.
        link = self.network.inter if self.topology.num_nodes > 1 else self.network.intra
        t = self.network.allreduce_ring_time(self.topology.world_size, nbytes, link)
        return TimeBreakdown({"allreduce": t})


class TreeAllReduce(CommScheme):
    """Double-binary-tree all-reduce ("TreeAR", NCCL's default for large P).

    Functional result: binomial-tree reduce + broadcast.  Cost model:
    logarithmic latency, but an interior tree node's NIC carries roughly
    ``traffic_factor`` times the message volume, and NCCL 2.5's tree is
    laid out along the ring order rather than NIC-balanced, so about
    :data:`TREE_NIC_CONTENTION` tree edges share each NIC.  The product
    of the two calibration factors reproduces the TreeAR curve of Fig. 7
    ("TreeAR ... is also not that efficient in the cloud environment",
    §5.3).
    """

    name = "TreeAR"
    dense = True

    def __init__(
        self,
        network: NetworkModel,
        *,
        wire_bytes: int = 4,
        traffic_factor: float = 3.0,
    ) -> None:
        super().__init__(network)
        self.wire_bytes = wire_bytes
        self.traffic_factor = traffic_factor

    def aggregate(
        self, worker_grads: np.ndarray, *, rng: RandomState | None = None
    ) -> AggregationResult:
        mat = self._worker_matrix(worker_grads)
        full = matrix_tree_allreduce(mat)
        d = mat.shape[1]
        return AggregationResult(
            aggregate=full,
            breakdown=self.time_model(d),
            inter_bytes=self.traffic_factor * d * self.wire_bytes,
            intra_bytes=2.0 * d * self.wire_bytes,
        )

    def time_model(self, d: int) -> TimeBreakdown:
        import math

        nbytes = d * self.wire_bytes
        multi_node = self.topology.num_nodes > 1
        # A single-node tree runs over NVLink with no NIC to contend for.
        link = self.network.inter if multi_node else self.network.intra
        contention = TREE_NIC_CONTENTION if multi_node else 1.0
        base = NetworkModel.allreduce_tree_time(
            self.topology.world_size,
            nbytes,
            link,
            traffic_factor=self.traffic_factor,
        )
        # Apply NIC contention only to the bandwidth term.
        depth = math.ceil(math.log2(max(2, self.topology.world_size)))
        latency = 2 * depth * link.alpha
        bandwidth = (base - latency) * contention
        return TimeBreakdown({"allreduce": latency + bandwidth})


class Torus2DAllReduce(CommScheme):
    """2D-Torus all-reduce ("2DTAR", Mikami et al. 2018 / Cho et al. 2019).

    Intra-node reduce-scatter, then ``n`` parallel inter-node ring
    all-reduces on ``1/n`` shards (sharing the NIC), then intra-node
    all-gather.  Pays only ``2 (m-1)`` inter-node latency terms and moves
    ``~2 D`` bytes per NIC — the strongest dense baseline on this
    topology, which is why Table 3 reports "2DTAR-SGD" as the main
    competitor.
    """

    name = "2DTAR"
    dense = True

    def __init__(self, network: NetworkModel, *, wire_bytes: int = 4) -> None:
        super().__init__(network)
        self.wire_bytes = wire_bytes

    def aggregate(
        self, worker_grads: np.ndarray, *, rng: RandomState | None = None
    ) -> AggregationResult:
        mat = self._worker_matrix(worker_grads)
        full = matrix_torus_allreduce_2d(mat, self.topology)
        d = mat.shape[1]
        breakdown = self.time_model(d)
        return AggregationResult(
            aggregate=full,
            breakdown=breakdown,
            inter_bytes=2.0 * d * self.wire_bytes,
            intra_bytes=2.0 * d * self.wire_bytes,
        )

    def time_model(self, d: int) -> TimeBreakdown:
        net = self.network
        n = self.topology.gpus_per_node
        m = self.topology.num_nodes
        nbytes = d * self.wire_bytes
        t_rs = net.intra_reduce_scatter_time(nbytes)
        # n concurrent inter-node rings, each on a 1/n shard, sharing the NIC.
        shard_bytes = nbytes / n
        t_ar = NetworkModel.allreduce_ring_time(m, shard_bytes, net.inter_link_shared(n))
        t_ag = net.intra_allgather_time(shard_bytes)
        return TimeBreakdown(
            {"reduce_scatter": t_rs, "inter_allreduce": t_ar, "intra_allgather": t_ag}
        )


__all__ = ["RingAllReduce", "TreeAllReduce", "Torus2DAllReduce"]
