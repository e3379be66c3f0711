"""Cluster topology: ``m`` nodes × ``n`` GPUs per node.

The paper consistently uses ``m`` for the node count and ``n`` for GPUs
per node (§3.2), with global rank order grouping GPUs of the same node
together (node-major).  This module provides the rank arithmetic used by
the collectives and by the hierarchical communication algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ClusterTopology:
    """An ``m × n`` grid of GPUs with node-major global ranks.

    Parameters
    ----------
    num_nodes:
        ``m`` — number of machines (the paper's testbed has 16).
    gpus_per_node:
        ``n`` — GPUs per machine (8 on the testbed).
    """

    num_nodes: int
    gpus_per_node: int

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.gpus_per_node < 1:
            raise ValueError(f"gpus_per_node must be >= 1, got {self.gpus_per_node}")

    @property
    def world_size(self) -> int:
        """Total GPU count ``P = m * n``."""
        return self.num_nodes * self.gpus_per_node

    # -- rank arithmetic ----------------------------------------------------
    def rank(self, node: int, local_rank: int) -> int:
        """Global rank of GPU ``local_rank`` on ``node`` (node-major)."""
        self._check_node(node)
        self._check_local(local_rank)
        return node * self.gpus_per_node + local_rank

    def node_of(self, rank: int) -> int:
        self._check_rank(rank)
        return rank // self.gpus_per_node

    def local_rank_of(self, rank: int) -> int:
        self._check_rank(rank)
        return rank % self.gpus_per_node

    # -- validation ----------------------------------------------------------
    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise IndexError(f"node {node} out of range [0, {self.num_nodes})")

    def _check_local(self, local_rank: int) -> None:
        if not 0 <= local_rank < self.gpus_per_node:
            raise IndexError(
                f"local rank {local_rank} out of range [0, {self.gpus_per_node})"
            )

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.world_size:
            raise IndexError(f"rank {rank} out of range [0, {self.world_size})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClusterTopology({self.num_nodes} nodes x {self.gpus_per_node} GPUs"
            f" = {self.world_size} workers)"
        )


__all__ = ["ClusterTopology"]
