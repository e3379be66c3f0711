"""gTop-k — global top-k aggregation (Shi et al. 2019c, paper §6).

A related-work baseline the paper cites: instead of gathering every
worker's local top-k (NaiveAG keeps up to ``P·k`` non-zeros), gTop-k
merges pairs of sparse vectors along a recursive-halving tree and
re-selects the top-k of each merged pair, so the final result has
*exactly* ``k`` global non-zeros after ``log2(P)`` rounds.

Trade-offs vs the paper's HiTopKComm:

* wire volume per round is ``2k`` pairs and there are ``log2 P`` rounds
  (vs one ρ-scaled inter-node exchange), so gTop-k pays more latency
  terms but keeps the output support minimal;
* re-selection at each merge drops information that error feedback must
  recover — convergence behaviour sits between TopK-SGD and heavier
  compression.

Functional semantics here follow the published algorithm: a binomial
tree of sparse merges with top-k re-selection, then a broadcast of the
final k pairs.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.cluster.gpu import V100, GpuSpec, mstopk_gpu_time
from repro.cluster.network import NetworkModel
from repro.collectives.sparse import SparseVector, coalesce
from repro.comm.base import AggregationResult, CommScheme, broadcast_views
from repro.comm.breakdown import TimeBreakdown
from repro.compression.base import TopKCompressor, density_to_k
from repro.compression.error_feedback import ErrorFeedback
from repro.compression.exact_topk import ExactTopK, topk_argpartition
from repro.utils.seeding import RandomState


def merge_topk(a: SparseVector, b: SparseVector, k: int) -> SparseVector:
    """Merge two sparse vectors and keep the top-k of the union.

    Duplicated indices are summed before re-selection (both workers
    voted for that coordinate), exactly as in the gTop-k paper.
    """
    if a.length != b.length:
        raise ValueError(f"length mismatch: {a.length} vs {b.length}")
    union = coalesce(
        SparseVector(
            np.concatenate([a.values, b.values]),
            np.concatenate([a.indices, b.indices]),
            a.length,
        )
    )
    if union.nnz <= k:
        return union
    sub = topk_argpartition(union.values, k)
    return SparseVector(sub.values, union.indices[sub.indices], a.length)


class GlobalTopK(CommScheme):
    """gTop-k aggregation over a binomial merge tree.

    Parameters mirror :class:`~repro.comm.naive_allgather.NaiveAllGather`;
    ``error_feedback`` compensates the local selection (per worker, size
    ``d``) — merge-stage drops are a property of the algorithm and are
    *not* compensated, as in the original system.
    """

    name = "gTopK"
    dense = False
    selection_step = "select"

    def __init__(
        self,
        network: NetworkModel,
        *,
        density: float = 0.001,
        compressor: TopKCompressor | None = None,
        error_feedback: bool = True,
        value_bytes: int = 4,
        index_bytes: int = 4,
        gpu: GpuSpec = V100,
    ) -> None:
        super().__init__(network)
        if not 0 < density <= 1:
            raise ValueError(f"density must be in (0, 1], got {density}")
        self.density = density
        self.compressor = compressor if compressor is not None else ExactTopK()
        self.ef = ErrorFeedback() if error_feedback else None
        self.value_bytes = value_bytes
        self.index_bytes = index_bytes
        self.gpu = gpu

    def aggregate(
        self, worker_grads: Sequence[np.ndarray], *, rng: RandomState | None = None
    ) -> AggregationResult:
        mat = self._worker_matrix(worker_grads)
        p, d = mat.shape
        k = density_to_k(d, self.density)

        # Batched local selection with error feedback.
        ranks = range(p)
        corrected = self.ef.apply_batch(ranks, mat) if self.ef is not None else mat
        selections: list[SparseVector] = self.compressor.select_batch(
            corrected, k, rng=rng
        )
        if self.ef is not None:
            self.ef.update_batch(ranks, corrected, selections)

        # Binomial merge tree: stride doubling, top-k re-selection at
        # each merge (mirrors the reduce phase of the tree all-reduce).
        # Each merge touches only 2k pairs, so this stays per-pair code.
        current: list[SparseVector | None] = list(selections)
        stride = 1
        while stride < p:
            for dst in range(0, p, 2 * stride):
                src = dst + stride
                if src < p and current[dst] is not None and current[src] is not None:
                    current[dst] = merge_topk(current[dst], current[src], k)
                    current[src] = None
            stride *= 2
        final = current[0]
        assert final is not None
        dense = final.to_dense()
        outputs = broadcast_views(dense, p)

        pair_bytes = k * (self.value_bytes + self.index_bytes)
        rounds = math.ceil(math.log2(max(2, p)))
        return AggregationResult(
            outputs=outputs,
            breakdown=self.time_model(d),
            inter_bytes=rounds * pair_bytes,
            intra_bytes=rounds * pair_bytes,
            extras={"k": k, "global_nnz": final.nnz, "selections": selections},
        )

    def time_model(self, d: int) -> TimeBreakdown:
        k = density_to_k(d, self.density)
        pair_bytes = k * (self.value_bytes + self.index_bytes)
        p = self.topology.world_size
        rounds = math.ceil(math.log2(max(2, p)))
        link = self.network.inter
        # Each round: one 2k-pair exchange + a merge re-selection.  The
        # later rounds always cross nodes on a node-major layout.
        t_comm = rounds * (link.alpha + pair_bytes * link.beta)
        t_merge = rounds * self.gpu.sort_time(2 * k)
        t_select = mstopk_gpu_time(d, gpu=self.gpu)
        # Broadcast of the final k pairs back down the tree.
        t_bcast = rounds * (link.alpha + pair_bytes * link.beta)
        return TimeBreakdown(
            {
                "select": t_select,
                "merge_tree": t_comm + t_merge,
                "broadcast": t_bcast,
            }
        )


__all__ = ["GlobalTopK", "merge_topk"]
