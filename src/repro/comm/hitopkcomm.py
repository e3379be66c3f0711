"""HiTopKComm — hierarchical top-k communication (paper §3.2, Algorithm 2).

The four steps, for a cluster of ``m`` nodes × ``n`` GPUs and a
``d``-element gradient at density ρ:

1. **Intra-node Reduce-Scatter** (Eq. 4/7): GPU ``j`` of node ``i`` ends
   up with the node-local sum of segment ``j`` (``d/n`` elements), moved
   over fast NVLink.
2. **MSTopK per shard** (Eq. 5/8): each GPU selects ``k̃ = ρ d / n``
   entries of its shard — an ``n``-times smaller selection than flat
   top-k, in parallel on all GPUs.
3. **Inter-node All-Gather per stream** (Eq. 6/9): the ``j``-th GPUs of
   all nodes exchange their (values, indices) pairs over ``n`` concurrent
   streams sharing each NIC, then scatter-add the ``m`` contributions
   into a dense shard accumulator (≤ ρ·d·m/n non-zeros).
4. **Intra-node All-Gather** (Eq. 10): nodes reassemble the full
   sparsified global gradient over NVLink.

Only step 3 touches the slow inter-node network, and it carries ρ of the
dense volume — that is the entire trick.

Error feedback: the information drop happens in step 2, on the
*node-reduced shard*, so the residual lives with the shard owner (one
``d/n`` buffer per GPU) and is added right after the reduce-scatter.

Buffers: the scheme owns one ``(m, d)`` node accumulator that step 1
writes and step 2 reads, reused by every call of the same shape and
dtype; error feedback corrects its shard views in place and rewrites
each residual in its own buffer.  Nothing a call returns points into
either: the selections hold gathered copies and the aggregate is fresh.
A caller that folds the node sums while the gradient is being made (the
trainer) fills the accumulator itself (:meth:`HiTopKComm.node_accumulator`)
and runs steps 2-4 alone (:meth:`HiTopKComm.aggregate_node_sums`); the
per-worker ``(W, d)`` matrix then never exists.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.gpu import V100, GpuSpec, mstopk_gpu_time
from repro.cluster.network import NetworkModel
from repro.collectives.reduce_scatter import matrix_reduce_scatter
from repro.collectives.sparse import batched_scatter_add
from repro.comm.base import AggregationResult, CommScheme
from repro.comm.breakdown import TimeBreakdown
from repro.compression.base import TopKCompressor, density_to_k
from repro.compression.error_feedback import ErrorFeedback, select_with_feedback
from repro.compression.mstopk import MSTopK
from repro.utils.partition import chunk_bounds
from repro.utils.seeding import RandomState

#: Step names, in paper order (Fig. 8's legend).
STEP_REDUCE_SCATTER = "reduce_scatter"
STEP_MSTOPK = "mstopk"
STEP_INTER_ALLGATHER = "inter_allgather"
STEP_INTRA_ALLGATHER = "intra_allgather"


class HiTopKComm(CommScheme):
    """Hierarchical sparse aggregation (Algorithm 2).

    Parameters
    ----------
    network:
        Cluster cost model (provides ``m``, ``n``, link specs).
    density:
        Sparsity ρ (paper uses 0.01 for Fig. 7/8, 0.001 for training).
    compressor:
        Shard-level top-k operator; MSTopK by default.
    error_feedback:
        Keep per-shard residuals (on by default; required for training).
    value_bytes / index_bytes:
        Wire format of the step-3 exchange.
    dense_wire_bytes:
        Wire format of the dense steps 1 and 4 (FP16 in Fig. 7, FP32 in
        Fig. 8).
    """

    name = "HiTopKComm"
    dense = False
    selection_step = STEP_MSTOPK

    def __init__(
        self,
        network: NetworkModel,
        *,
        density: float = 0.01,
        compressor: TopKCompressor | None = None,
        error_feedback: bool = True,
        value_bytes: int = 4,
        index_bytes: int = 4,
        dense_wire_bytes: int = 4,
        gpu: GpuSpec = V100,
    ) -> None:
        super().__init__(network)
        if not 0 < density <= 1:
            raise ValueError(f"density must be in (0, 1], got {density}")
        self.density = density
        self.compressor = compressor if compressor is not None else MSTopK()
        self.ef = ErrorFeedback() if error_feedback else None
        self.value_bytes = value_bytes
        self.index_bytes = index_bytes
        self.dense_wire_bytes = dense_wire_bytes
        self.gpu = gpu
        self._node_acc: np.ndarray | None = None

    # -- functional aggregation ------------------------------------------------
    def aggregate(
        self, worker_grads: np.ndarray, *, rng: RandomState | None = None
    ) -> AggregationResult:
        mat = self._worker_matrix(worker_grads)
        n = self.topology.gpus_per_node
        # Step 1: intra-node ring reduce-scatter, one fold per node into
        # its row of the node accumulator (ranks are node-major, so each
        # node is a contiguous row block of the gradient matrix).
        node_acc = self.node_accumulator(mat.shape[1], mat.dtype)
        for node, row in enumerate(node_acc):
            matrix_reduce_scatter(mat[node * n : (node + 1) * n], out=row)
        return self.aggregate_node_sums(node_acc, rng=rng)

    def node_accumulator(self, d: int, dtype) -> np.ndarray:
        """The ``(m, d)`` buffer whose row ``i`` holds node ``i``'s sum
        after step 1, reused by every call of the same shape and dtype.

        A caller that folds the node sums itself (the trainer, while the
        gradient is computed) fills it and hands it to
        :meth:`aggregate_node_sums`.
        """
        m = self.topology.num_nodes
        node_acc = self._node_acc
        if node_acc is None or node_acc.shape != (m, d) or node_acc.dtype != dtype:
            node_acc = self._node_acc = np.empty((m, d), dtype=dtype)
        return node_acc

    def aggregate_node_sums(
        self, node_acc: np.ndarray, *, rng: RandomState | None = None
    ) -> AggregationResult:
        """Steps 2-4 from a filled ``(m, d)`` node accumulator, each row
        laid out as step 1's reduce-scatter leaves it: error feedback
        corrects its shards in place."""
        topo = self.topology
        m, n = topo.num_nodes, topo.gpus_per_node
        d = node_acc.shape[1]
        bounds = chunk_bounds(d, n)

        # Step 2: per-shard top-k selection with shard-resident error
        # feedback, added in place; the corrected shards of all m*n GPUs
        # go through one ``select_batch`` call.  k̃ = ρ * shard_size
        # (paper: ρ d / n).  Shard order is rank order, which fixes the
        # rng stream.
        shard_ranks: list[int] = []
        shards: list[np.ndarray] = []
        ks: list[int] = []
        for node in range(m):
            for local in range(n):
                start, end = bounds[local]
                shard_ranks.append(topo.rank(node, local))
                shards.append(node_acc[node, start:end])
                ks.append(density_to_k(end - start, self.density))
        sel_list = select_with_feedback(
            self.compressor, self.ef, shard_ranks, shards, ks, out=shards, rng=rng
        )
        selections: dict[int, object] = dict(zip(shard_ranks, sel_list))

        # Steps 3 + 4: inter-node all-gather per stream, then intra-node
        # reassembly.  Each shard's selection is re-based into the full
        # coordinate space and everything lands in ONE fused scatter-add
        # (identical accumulation order: stream-major, node order within
        # a stream — exactly the per-stream loops it replaces).
        stream_order: list[object] = []
        offsets: list[int] = []
        for local in range(n):
            start = bounds[local][0]
            for node in range(m):
                stream_order.append(selections[topo.rank(node, local)])
                offsets.append(start)
        full = batched_scatter_add(stream_order, d, dtype=node_acc.dtype, offsets=offsets)

        breakdown = self.time_model(d)
        k_tilde = density_to_k(bounds[0][1] - bounds[0][0], self.density)
        pair_bytes = k_tilde * (self.value_bytes + self.index_bytes)
        return AggregationResult(
            aggregate=full,
            breakdown=breakdown,
            inter_bytes=(m - 1) * pair_bytes * n,  # per NIC: n streams
            intra_bytes=2.0 * d * self.dense_wire_bytes / n * (n - 1),
            extras={"k_tilde": k_tilde, "selections": selections},
        )

    # -- analytic time model (Eqs. 7-10) ---------------------------------------
    def time_model(self, d: int) -> TimeBreakdown:
        net = self.network
        n = self.topology.gpus_per_node
        m = self.topology.num_nodes
        shard = d / n

        # Step 1 — Eq. (7): ring reduce-scatter over NVLink.
        t1 = net.intra_reduce_scatter_time(d * self.dense_wire_bytes)

        # Step 2 — Eq. (8): MSTopK on a d/n shard (GPU streaming model).
        t2 = mstopk_gpu_time(int(shard), gpu=self.gpu)

        # Step 3 — Eq. (9): inter-node All-Gather of k̃ (value, index)
        # pairs among m nodes, on n NIC-sharing streams.
        k_tilde = max(1, int(round(self.density * shard)))
        pair_bytes = k_tilde * (self.value_bytes + self.index_bytes)
        t3 = net.inter_allgather_time(pair_bytes, streams=n)
        # Scatter-add of the gathered m*k̃ pairs (irregular access).
        accum_bytes = m * k_tilde * (self.value_bytes + self.index_bytes)
        t3 += accum_bytes / (self.gpu.memory_bandwidth * self.gpu.irregular_efficiency)

        # Step 4 — Eq. (10): intra-node All-Gather of the accumulated
        # shards (≤ ρ d m / n non-zeros each, exchanged as value/index
        # pairs: "we assume the indices of the third step are all
        # different so that the number of elements ... is ρ d m / n").
        per_rank_bytes = (
            min(m * k_tilde, int(shard)) * (self.value_bytes + self.index_bytes)
        )
        t4 = net.intra_allgather_time(per_rank_bytes)

        return TimeBreakdown(
            {
                STEP_REDUCE_SCATTER: t1,
                STEP_MSTOPK: t2,
                STEP_INTER_ALLGATHER: t3,
                STEP_INTRA_ALLGATHER: t4,
            }
        )


__all__ = [
    "HiTopKComm",
    "STEP_REDUCE_SCATTER",
    "STEP_MSTOPK",
    "STEP_INTER_ALLGATHER",
    "STEP_INTRA_ALLGATHER",
]
