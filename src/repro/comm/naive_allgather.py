"""NaiveAG — flat sparse aggregation with All-Gather (the TopK-SGD baseline).

Each worker selects its own top-k of the *local* gradient, and the
(values, indices) pairs are exchanged with an All-Gather over all ``P``
GPUs (SparCML-style; paper §3.2: "The efficient way is to use two
All-Gather operations to aggregate the values and indices
respectively").  This is the scheme whose poor cloud performance
motivates HiTopKComm: the volume per NIC grows with ``P`` (every worker
receives every other worker's 2k elements) and the two un-fused
collectives achieve poor goodput on VPC Ethernet.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.network import NetworkModel
from repro.cluster.gpu import V100, GpuSpec, exact_topk_gpu_time, mstopk_gpu_time
from repro.collectives.sparse import batched_scatter_add
from repro.comm.base import AggregationResult, CommScheme
from repro.comm.breakdown import TimeBreakdown
from repro.compression.base import TopKCompressor, density_to_k
from repro.compression.exact_topk import ExactTopK
from repro.compression.error_feedback import ErrorFeedback, select_with_feedback
from repro.utils.seeding import RandomState

#: Multiplier (< 1) on link efficiency for the un-fused sparse exchange,
#: calibrated against Fig. 7's NaiveAG curve.
SPARSE_GOODPUT = 0.35


class NaiveAllGather(CommScheme):
    """Flat sparse All-Gather aggregation ("NaiveAG").

    Parameters
    ----------
    network:
        Cluster cost model.
    density:
        Sparsity ρ; each worker transmits ``k = ρ d`` (value, index) pairs.
    compressor:
        Top-k operator (exact by default — the baseline TopK-SGD of
        Figs. 1/10 uses exact selection).
    error_feedback:
        Keep per-worker residuals so dropped coordinates are re-injected
        next round (required for convergence; on by default).
    value_bytes / index_bytes:
        Wire format of the two all-gathered buffers.

    The un-fused sparse exchange (two separate collectives with small
    messages plus the scatter-add accumulation pass) runs links at
    :data:`SPARSE_GOODPUT` of their efficiency.
    """

    name = "NaiveAG"
    dense = False

    def __init__(
        self,
        network: NetworkModel,
        *,
        density: float = 0.01,
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
        self, worker_grads: np.ndarray, *, rng: RandomState | None = None
    ) -> AggregationResult:
        mat = self._worker_matrix(worker_grads)
        p, d = mat.shape
        k = density_to_k(d, self.density)

        # Local selection with error feedback: one fresh corrected matrix,
        # one multi-shard top-k pass, then each rank's residual rewritten.
        corrected = mat if self.ef is None else np.empty(mat.shape, mat.dtype)
        selections = select_with_feedback(
            self.compressor, self.ef, range(p), mat, k, out=corrected, rng=rng
        )

        # All-Gather + one fused scatter-add of every worker's pairs.
        dense = batched_scatter_add(selections, d, dtype=mat.dtype)
        breakdown = self.time_model(d)
        pair_bytes = k * (self.value_bytes + self.index_bytes)
        return AggregationResult(
            aggregate=dense,
            breakdown=breakdown,
            inter_bytes=(self.topology.world_size - 1) * pair_bytes,
            intra_bytes=(self.topology.world_size - 1) * pair_bytes,
            extras={"k": k, "selections": selections},
        )

    def time_model(self, d: int) -> TimeBreakdown:
        k = density_to_k(d, self.density)
        p = self.topology.world_size
        pair_bytes = k * (self.value_bytes + self.index_bytes)
        # Ring All-Gather over all P ranks (node-major): every inter-node
        # link forwards all (P-1) foreign messages, at degraded goodput.
        link = self.network.inter.scaled(SPARSE_GOODPUT)
        t_comm = (p - 1) * (link.alpha + pair_bytes * link.beta)
        # Accumulation: scatter-add of P*k (value, index) pairs per GPU.
        accum_bytes = p * k * (self.value_bytes + self.index_bytes)
        bw = self.gpu.memory_bandwidth * self.gpu.irregular_efficiency
        t_accum = accum_bytes / bw
        breakdown = TimeBreakdown({"allgather": t_comm, "accumulate": t_accum})
        return breakdown

    def selection_and_communication(self, d: int) -> tuple[float, float]:
        """Selection runs outside :meth:`time_model`, on the full gradient.

        Exact selection uses the sort model (the Fig. 1 "Compression" bar
        that costs more than FF&BP); MSTopK uses the streaming model.
        """
        select = exact_topk_gpu_time if isinstance(self.compressor, ExactTopK) else mstopk_gpu_time
        return select(d, gpu=self.gpu), self.time_model(d).total


__all__ = ["NaiveAllGather"]
