"""Alpha–beta network cost model with NIC sharing.

This is the timing substrate for every communication scheme in
:mod:`repro.comm`.  Two properties of public-cloud clusters drive the
paper's design and are modelled explicitly:

1. **Asymmetric hierarchy** — NVLink inside a node is two orders of
   magnitude faster than the 25 GbE VPC between nodes, so ``beta_intra``
   and ``beta_inter`` differ hugely (paper §1, §3.2).
2. **NIC sharing** — all ``n`` GPUs of a node share one NIC.  When the
   hierarchical algorithm runs ``n`` concurrent inter-node streams
   (Algorithm 2, step 3), each stream sees ``1/n`` of the node
   bandwidth.  Flat algorithms that move the full gradient across the
   NIC pay the whole dense volume regardless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cluster.links import ETHERNET_25G, LinkSpec, NVLINK_V100
from repro.cluster.topology import ClusterTopology


@dataclass(frozen=True)
class NetworkModel:
    """Cost model for a hierarchical cluster (``m`` nodes × ``n`` GPUs).

    All methods return virtual seconds.  Message sizes are in bytes;
    callers convert element counts using the wire dtype (FP32/FP16).
    """

    topology: ClusterTopology
    intra: LinkSpec = NVLINK_V100
    inter: LinkSpec = ETHERNET_25G

    # -- convenience accessors ------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.topology.num_nodes

    @property
    def gpus_per_node(self) -> int:
        return self.topology.gpus_per_node

    @property
    def world_size(self) -> int:
        return self.topology.world_size

    def inter_link_shared(self, streams: int) -> LinkSpec:
        """The inter-node link as seen by one of ``streams`` concurrent flows."""
        if streams < 1:
            raise ValueError(f"streams must be >= 1, got {streams}")
        return self.inter.scaled(1.0 / streams)

    def contended(self, tenants: float) -> "NetworkModel":
        """This cluster as seen by one of ``tenants`` co-located jobs.

        Multi-tenant clusters share node NICs *between jobs* on top of the
        intra-job stream sharing above: when ``tenants`` jobs keep flows in
        flight on the same node, fair queueing gives each job ``1/tenants``
        of the NIC.  NVLink inside the node is partitioned with the GPUs,
        so only the inter-node link degrades.  ``tenants=1`` returns
        ``self`` unchanged (the solo baseline); fractional values model
        time-averaged sharing (e.g. a neighbour that communicates half the
        time is ~1.5 effective tenants).
        """
        if tenants < 1:
            raise ValueError(f"tenants must be >= 1, got {tenants}")
        if tenants == 1:
            return self
        return NetworkModel(
            topology=self.topology,
            intra=self.intra,
            inter=self.inter.scaled(1.0 / tenants),
        )

    def degraded(
        self, *, inter_scale: float = 1.0, intra_scale: float = 1.0
    ) -> "NetworkModel":
        """This cluster with faulty links at a fraction of their bandwidth.

        The fault model for NIC degradation/flap: a sick NIC (or a
        congested top-of-rack switch) delivers only ``inter_scale`` of
        the healthy inter-node bandwidth; ``intra_scale`` covers the
        rarer case of a throttled NVLink.  Latency (``alpha``) is
        unchanged — a degraded link is slow, not far away.  Scales of
        1.0 return ``self`` so the healthy path shares object identity
        with the original model.
        """
        for label, scale in (("inter_scale", inter_scale), ("intra_scale", intra_scale)):
            if not 0 < scale <= 1:
                raise ValueError(f"{label} must be in (0, 1], got {scale}")
        if inter_scale == 1 and intra_scale == 1:
            return self
        return NetworkModel(
            topology=self.topology,
            intra=self.intra if intra_scale == 1 else self.intra.scaled(intra_scale),
            inter=self.inter if inter_scale == 1 else self.inter.scaled(inter_scale),
        )

    def lossy(self, loss_rate: float = 0.0) -> "NetworkModel":
        """This cluster over a *gray* inter-node link dropping packets.

        Packet loss at rate ``p`` forces the lost fraction to be
        retransmitted, so the effective per-byte cost of the inter link
        stretches by ``1 / (1 - p)``.  Latency is untouched — the gray
        link is close but unreliable; the *stochastic* latency-jitter
        half of a gray failure is priced separately per iteration
        (:class:`repro.perf.iteration_model.IterationModel`'s
        ``comm_jitter``).  ``loss_rate=0`` returns ``self`` so the
        healthy path shares object identity with the original model.
        """
        if not 0 <= loss_rate < 1:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        if loss_rate == 0:
            return self
        return NetworkModel(
            topology=self.topology,
            intra=self.intra,
            inter=self.inter.scaled(1.0 - loss_rate),
        )

    # -- collective closed forms -------------------------------------------------
    # These implement the closed-form costs the paper states; the comm
    # schemes compose them.  ``p`` is the participant count and sizes are
    # bytes.  A group of size 1 costs nothing.

    @staticmethod
    def allgather_time(p: int, nbytes_per_rank: float, link: LinkSpec) -> float:
        """All-Gather cost: ``alpha * log2(p) + (p - 1) * beta * nbytes``.

        This is paper Eq. (3) (with the 4-bytes-per-element factor folded
        into ``nbytes_per_rank`` by the caller).
        """
        if p < 1:
            raise ValueError(f"participant count must be >= 1, got {p}")
        if p == 1:
            return 0.0
        return link.alpha * math.log2(p) + (p - 1) * link.beta * nbytes_per_rank

    @staticmethod
    def reduce_scatter_time(p: int, nbytes_total: float, link: LinkSpec) -> float:
        """Ring Reduce-Scatter cost: ``(p-1) * alpha + (p-1) * (D/p) * beta``.

        Paper Eq. (7) with ``D = 4d`` bytes folded in by the caller.
        """
        if p < 1:
            raise ValueError(f"participant count must be >= 1, got {p}")
        if p == 1:
            return 0.0
        return (p - 1) * link.alpha + (p - 1) * (nbytes_total / p) * link.beta

    @staticmethod
    def allreduce_ring_time(p: int, nbytes: float, link: LinkSpec) -> float:
        """Ring All-Reduce: reduce-scatter + all-gather on the same ring."""
        if p < 1:
            raise ValueError(f"participant count must be >= 1, got {p}")
        if p == 1:
            return 0.0
        bandwidth_term = 2 * (p - 1) * (nbytes / p) * link.beta
        return 2 * (p - 1) * link.alpha + bandwidth_term

    @staticmethod
    def allreduce_tree_time(
        p: int,
        nbytes: float,
        link: LinkSpec,
        *,
        traffic_factor: float = 3.0,
    ) -> float:
        """Double-binary-tree All-Reduce (Sanders et al. 2009; NCCL "TreeAR").

        Latency is logarithmic; the bandwidth term carries
        ``traffic_factor * nbytes`` per participant: an interior tree
        node receives from two children and forwards to its parent in
        the reduce phase and mirrors that in the broadcast phase, so its
        NIC moves ~3x the message volume even with the two complementary
        trees halving each message.  NCCL hides part of this with
        pipelining on fat links, but on VM Ethernet without RDMA the
        interior-node bottleneck is what the paper observes ("TreeAR ...
        is also not that efficient in the cloud environment", §5.3).
        """
        if p < 1:
            raise ValueError(f"participant count must be >= 1, got {p}")
        if p == 1:
            return 0.0
        depth = math.ceil(math.log2(p))
        return 2 * depth * link.alpha + traffic_factor * nbytes * link.beta

    # -- hierarchy-aware helpers ---------------------------------------------
    def intra_reduce_scatter_time(self, nbytes_total: float) -> float:
        """Step 1 of HiTopKComm: per-node ring Reduce-Scatter (Eq. 7)."""
        return self.reduce_scatter_time(self.gpus_per_node, nbytes_total, self.intra)

    def intra_allgather_time(self, nbytes_per_rank: float) -> float:
        """Step 4 of HiTopKComm: per-node All-Gather (Eq. 10)."""
        return self.allgather_time(self.gpus_per_node, nbytes_per_rank, self.intra)

    def inter_allgather_time(
        self, nbytes_per_rank: float, *, streams: int | None = None
    ) -> float:
        """Step 3 of HiTopKComm: inter-node All-Gather on shared NIC (Eq. 9).

        With ``streams`` concurrent per-node flows (default: ``n``, one
        per GPU), each flow sees ``1/streams`` of the NIC bandwidth; the
        streams run in parallel so the wall time is the (identical)
        per-stream time.
        """
        streams = self.gpus_per_node if streams is None else streams
        link = self.inter_link_shared(streams)
        return self.allgather_time(self.num_nodes, nbytes_per_rank, link)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NetworkModel({self.topology!r}, intra={self.intra.name}, "
            f"inter={self.inter.name})"
        )


__all__ = ["NetworkModel"]
