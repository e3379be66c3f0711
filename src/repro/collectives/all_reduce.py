"""All-Reduce collectives: ring, tree, and 2D-torus.

The paper evaluates against two dense aggregation baselines:

* **TreeAR** — NCCL's double-binary-tree all-reduce (Sanders et al.
  2009).  Functionally we implement a binomial-tree reduce + broadcast
  (the result is identical; the double-tree trick only changes the
  *schedule*, which the cost model in :mod:`repro.cluster.network`
  captures separately).
* **2DTAR** — the 2D-Torus all-reduce of Mikami et al. 2018 / Cho et al.
  2019 ("BlueConnect"): intra-node reduce-scatter, inter-node ring
  all-reduce per shard, intra-node all-gather.  This exploits the same
  hierarchy HiTopKComm does, but with dense data.

Plus the classic flat ring all-reduce (Baidu 2017) as a reference.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.collectives.all_gather import ring_all_gather
from repro.collectives.primitives import validate_group
from repro.collectives.reduce_scatter import matrix_reduce_scatter, ring_reduce_scatter
from repro.cluster.topology import ClusterTopology
from repro.utils.partition import chunk_bounds


def ring_allreduce(tensors: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Flat ring all-reduce: reduce-scatter followed by all-gather."""
    arrays = validate_group(tensors, name="ring_allreduce")
    shards = ring_reduce_scatter(arrays)
    return ring_all_gather_unequal(shards)


def ring_all_gather_unequal(shards: Sequence[np.ndarray]) -> list[np.ndarray]:
    """All-gather of possibly unequal contiguous shards (rank order).

    Ring reduce-scatter with ``d % p != 0`` produces shards whose sizes
    differ by one; the closing all-gather must reassemble them in rank
    order.  Functionally equivalent to concatenation broadcast.
    """
    if len(shards) == 0:
        raise ValueError("ring_all_gather_unequal: empty worker group")
    sizes = {s.size for s in map(np.asarray, shards)}
    if len(sizes) == 1:
        return ring_all_gather(shards)
    full = np.concatenate([np.asarray(s) for s in shards])
    return [full.copy() for _ in range(len(shards))]


def matrix_ring_allreduce(mat: np.ndarray) -> np.ndarray:
    """Vectorised flat ring all-reduce over a ``(p, d)`` matrix.

    Returns the single ``(d,)`` aggregate every rank ends up with —
    bit-identical to ``ring_allreduce(list(mat))[r]`` for any ``r``
    (the closing all-gather only moves bytes; the reduced values are
    fixed by the reduce-scatter fold, which
    :func:`~repro.collectives.reduce_scatter.matrix_reduce_scatter`
    reproduces exactly).
    """
    return matrix_reduce_scatter(mat)


def matrix_tree_allreduce(mat: np.ndarray) -> np.ndarray:
    """Vectorised binomial-tree all-reduce over a ``(p, d)`` matrix.

    Row pairs at stride 1, 2, 4, ... are added with one fancy-indexed
    matrix operation per stride instead of a Python loop over ranks; the
    pairwise additions are the same IEEE operations in the same order as
    :func:`tree_allreduce`, so the aggregate is bit-identical.
    """
    mat = np.asarray(mat)
    if mat.ndim != 2:
        raise ValueError(f"matrix_tree_allreduce: need a (p, d) matrix, got {mat.shape}")
    p = mat.shape[0]
    if p == 0:
        raise ValueError("matrix_tree_allreduce: empty worker group")
    buf = mat.copy()
    stride = 1
    while stride < p:
        dst = np.arange(0, p, 2 * stride)
        src = dst + stride
        valid = src < p
        if valid.any():
            buf[dst[valid]] += buf[src[valid]]
        stride *= 2
    return buf[0]


def matrix_torus_allreduce_2d(mat: np.ndarray, topology: ClusterTopology) -> np.ndarray:
    """Vectorised 2D-Torus all-reduce over a node-major ``(P, d)`` matrix.

    Phase 1 runs the ring reduce-scatter fold on each node's contiguous
    row block, phase 2 runs a vectorised inter-node ring all-reduce per
    segment column block, and phase 3 (the intra-node all-gather) is
    the identity on the assembled vector.  Bit-identical to
    :func:`torus_allreduce_2d`.
    """
    mat = np.asarray(mat)
    if mat.ndim != 2:
        raise ValueError(
            f"matrix_torus_allreduce_2d: need a (P, d) matrix, got {mat.shape}"
        )
    if mat.shape[0] != topology.world_size:
        raise ValueError(
            f"matrix_torus_allreduce_2d: got {mat.shape[0]} rows for "
            f"world size {topology.world_size}"
        )
    m, n = topology.num_nodes, topology.gpus_per_node
    d = mat.shape[1]

    # Phase 1: per-node reduce-scatter (ranks are node-major, so each
    # node is a contiguous row block).
    node_acc = np.empty((m, d), dtype=mat.dtype)
    for node in range(m):
        node_acc[node] = matrix_reduce_scatter(mat[node * n : (node + 1) * n])

    # Phase 2: per-segment inter-node ring all-reduce (n column blocks).
    full = np.empty(d, dtype=mat.dtype)
    for start, end in chunk_bounds(d, n):
        full[start:end] = matrix_ring_allreduce(node_acc[:, start:end])

    # Phase 3: the intra-node all-gather reassembles segments 0..n-1 in
    # order — exactly the layout ``full`` already has.
    return full


def tree_allreduce(tensors: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Binomial-tree all-reduce: reduce to rank 0, then broadcast.

    The reduction pairs ranks at stride 1, 2, 4, ... (a binomial tree of
    depth ``ceil(log2 p)``), which fixes the floating-point accumulation
    order deterministically.
    """
    arrays = validate_group(tensors, name="tree_allreduce")
    p = len(arrays)
    acc = [arr.copy() for arr in arrays]
    stride = 1
    while stride < p:
        for dst in range(0, p, 2 * stride):
            src = dst + stride
            if src < p:
                acc[dst] = acc[dst] + acc[src]
        stride *= 2
    result = acc[0]
    return [result.copy() for _ in range(p)]


def torus_allreduce_2d(
    tensors: Sequence[np.ndarray], topology: ClusterTopology
) -> list[np.ndarray]:
    """2D-Torus all-reduce over an ``m × n`` hierarchy (2DTAR).

    Three phases (Mikami et al. 2018):

    1. intra-node ring reduce-scatter — GPU ``j`` of each node owns the
       node-local sum of segment ``j``;
    2. inter-node ring all-reduce of segment ``j`` among the ``j``-th
       GPUs of all nodes (``n`` independent rings in parallel);
    3. intra-node ring all-gather to reassemble the full vector.

    The result equals the global sum on every worker.
    """
    arrays = validate_group(tensors, name="torus_allreduce_2d")
    if len(arrays) != topology.world_size:
        raise ValueError(
            f"torus_allreduce_2d: got {len(arrays)} tensors for "
            f"world size {topology.world_size}"
        )
    m, n = topology.num_nodes, topology.gpus_per_node

    # Phase 1: per-node reduce-scatter.
    shards: dict[int, np.ndarray] = {}
    for node in range(m):
        group = [arrays[r] for r in topology.node_ranks(node)]
        node_shards = ring_reduce_scatter(group)
        for local, shard in enumerate(node_shards):
            shards[topology.rank(node, local)] = shard

    # Phase 2: per-stream inter-node ring all-reduce of each segment.
    for local in range(n):
        stream = topology.stream_ranks(local)
        stream_tensors = [shards[r] for r in stream]
        reduced = ring_allreduce(stream_tensors)
        for r, tensor in zip(stream, reduced):
            shards[r] = tensor

    # Phase 3: per-node all-gather reassembling segments 0..n-1.
    out: list[np.ndarray | None] = [None] * topology.world_size
    for node in range(m):
        group_ranks = topology.node_ranks(node)
        gathered = ring_all_gather_unequal([shards[r] for r in group_ranks])
        for r, full in zip(group_ranks, gathered):
            out[r] = full
    assert all(o is not None for o in out)
    return [o for o in out if o is not None]


__all__ = [
    "ring_allreduce",
    "ring_all_gather_unequal",
    "tree_allreduce",
    "torus_allreduce_2d",
    "matrix_ring_allreduce",
    "matrix_tree_allreduce",
    "matrix_torus_allreduce_2d",
]
