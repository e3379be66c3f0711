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

import numpy as np

from repro.collectives.reduce_scatter import matrix_reduce_scatter
from repro.cluster.topology import ClusterTopology
from repro.utils.partition import chunk_bounds


def matrix_ring_allreduce(mat: np.ndarray) -> np.ndarray:
    """Vectorised flat ring all-reduce over a ``(p, d)`` matrix.

    Returns the single ``(d,)`` aggregate every rank ends up with —
    bit-identical to what a step-by-step ring all-reduce leaves on any
    rank (the closing all-gather only moves bytes; the reduced values are
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
    a rank-by-rank binomial tree, so the aggregate is bit-identical.
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
    the identity on the assembled vector.  Bit-identical to running the
    three phases rank by rank.
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
        matrix_reduce_scatter(mat[node * n : (node + 1) * n], out=node_acc[node])

    # Phase 2: per-segment inter-node ring all-reduce (n column blocks);
    # its reduced values are the ring reduce-scatter fold's.
    full = np.empty(d, dtype=mat.dtype)
    for start, end in chunk_bounds(d, n):
        matrix_reduce_scatter(node_acc[:, start:end], out=full[start:end])

    # Phase 3: the intra-node all-gather reassembles segments 0..n-1 in
    # order — exactly the layout ``full`` already has.
    return full


__all__ = [
    "matrix_ring_allreduce",
    "matrix_tree_allreduce",
    "matrix_torus_allreduce_2d",
]
