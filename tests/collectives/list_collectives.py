"""The list-form collectives: one array per rank, step by step.

These simulate each schedule rank by rank — the ring reduce-scatter's
``p - 1`` send/accumulate steps, the binomial tree, the three 2D-torus
phases, NaiveAG's all-gather + scatter-add — exactly as the pre-vectorised
trainer ran them.  They are the oracle the matrix-native collectives in
:mod:`repro.collectives` are pinned to, bit for bit
(``tests/collectives/test_matrix_collectives.py``), and the collectives
of the legacy scheme loops in :mod:`tests.comm.legacy_schemes`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cluster.topology import ClusterTopology
from repro.collectives.sparse import SparseVector
from repro.utils.partition import chunk_bounds


def node_ranks(topology: ClusterTopology, node: int) -> list[int]:
    """Global ranks of all GPUs on one node."""
    return [topology.rank(node, local) for local in range(topology.gpus_per_node)]


def stream_ranks(topology: ClusterTopology, local_rank: int) -> list[int]:
    """Global ranks of the ``local_rank``-th GPU on every node.

    These are the participants of one inter-node communication stream in
    HiTopKComm step 3 ("for the j-th communication stream, the j-th GPUs
    in all nodes perform an All-Gather").
    """
    return [topology.rank(node, local_rank) for node in range(topology.num_nodes)]


def validate_group(tensors: Sequence[np.ndarray], *, name: str = "collective") -> list[np.ndarray]:
    """Check that a per-worker tensor list is a valid collective group.

    All tensors must be one-dimensional with identical length and dtype
    (the trainer flattens/fuses layer gradients before communicating, so
    1-D is the only case the collectives need to support).
    """
    if len(tensors) == 0:
        raise ValueError(f"{name}: empty worker group")
    arrays = [np.asarray(t) for t in tensors]
    first = arrays[0]
    if first.ndim != 1:
        raise ValueError(f"{name}: tensors must be 1-D, got shape {first.shape}")
    for rank, arr in enumerate(arrays):
        if arr.shape != first.shape:
            raise ValueError(
                f"{name}: rank {rank} has shape {arr.shape}, expected {first.shape}"
            )
        if arr.dtype != first.dtype:
            raise ValueError(
                f"{name}: rank {rank} has dtype {arr.dtype}, expected {first.dtype}"
            )
    return arrays


def ring_reduce_scatter(tensors: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Ring reduce-scatter: worker ``i`` ends up owning reduced chunk ``i``.

    Simulates the actual ring schedule (``p - 1`` send/accumulate steps)
    over chunk-partitioned buffers rather than summing directly, so the
    result order and the floating-point accumulation order match a real
    ring implementation.

    Returns the list of owned chunks (worker ``i`` → chunk ``i``).
    """
    arrays = validate_group(tensors, name="ring_reduce_scatter")
    p = len(arrays)
    d = arrays[0].size
    bounds = chunk_bounds(d, p)

    if p == 1:
        return [arrays[0].copy()]

    # chunks[w][c] is worker w's current accumulated value of chunk c.
    chunks: list[list[np.ndarray]] = [
        [arr[start:end].copy() for start, end in bounds] for arr in arrays
    ]

    # At step t, worker w sends its accumulated chunk (w - t - 1) mod p to
    # worker (w + 1) mod p.  After p-1 steps worker w owns chunk w fully
    # reduced.  Sends within one step are simultaneous, so we read the
    # pre-step state for all sends before applying any accumulation.
    for step in range(p - 1):
        sends = []
        for w in range(p):
            c = (w - step - 1) % p
            sends.append((c, (w + 1) % p, chunks[w][c]))
        for c, dst, payload in sends:
            chunks[dst][c] = chunks[dst][c] + payload

    return [chunks[w][w] for w in range(p)]


def reference_reduce_scatter(tensors: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Direct (non-ring) reference: sum then shard.  Used by tests."""
    arrays = validate_group(tensors, name="reference_reduce_scatter")
    total = arrays[0].copy()
    for arr in arrays[1:]:
        total += arr
    bounds = chunk_bounds(total.size, len(arrays))
    return [total[start:end].copy() for start, end in bounds]


def _as_arrays(tensors: Sequence[np.ndarray], name: str) -> list[np.ndarray]:
    if len(tensors) == 0:
        raise ValueError(f"{name}: empty worker group")
    arrays = []
    for rank, t in enumerate(tensors):
        arr = np.asarray(t)
        if arr.ndim != 1:
            raise ValueError(f"{name}: rank {rank} tensor must be 1-D, got {arr.shape}")
        arrays.append(arr)
    return arrays


def ring_all_gather(tensors: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Ring All-Gather simulating the actual ``p - 1`` step schedule.

    Requires equal-length inputs (the ring schedule forwards fixed-size
    chunks).  Worker ``w`` ends with the concatenation in rank order.
    """
    arrays = _as_arrays(tensors, "ring_all_gather")
    p = len(arrays)
    size = arrays[0].size
    for rank, arr in enumerate(arrays):
        if arr.size != size:
            raise ValueError(
                f"ring_all_gather: rank {rank} has {arr.size} elements, expected {size}"
            )
    if p == 1:
        return [arrays[0].copy()]

    # received[w][c] is worker w's copy of rank c's chunk (None if not yet
    # received).  At step t, worker w forwards chunk (w - t) mod p to its
    # successor.
    received: list[list[np.ndarray | None]] = [
        [arrays[c].copy() if c == w else None for c in range(p)] for w in range(p)
    ]
    for step in range(p - 1):
        sends = []
        for w in range(p):
            c = (w - step) % p
            payload = received[w][c]
            if payload is None:  # pragma: no cover - schedule invariant
                raise AssertionError(f"ring schedule error: worker {w} missing chunk {c}")
            sends.append((c, (w + 1) % p, payload))
        for c, dst, payload in sends:
            received[dst][c] = payload.copy()

    out: list[np.ndarray] = []
    for w in range(p):
        chunks = received[w]
        assert all(c is not None for c in chunks)
        out.append(np.concatenate([c for c in chunks if c is not None]))
    return out


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


def ring_allreduce(tensors: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Flat ring all-reduce: reduce-scatter followed by all-gather."""
    arrays = validate_group(tensors, name="ring_allreduce")
    shards = ring_reduce_scatter(arrays)
    return ring_all_gather_unequal(shards)


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
        group = [arrays[r] for r in node_ranks(topology, node)]
        node_shards = ring_reduce_scatter(group)
        for local, shard in enumerate(node_shards):
            shards[topology.rank(node, local)] = shard

    # Phase 2: per-stream inter-node ring all-reduce of each segment.
    for local in range(n):
        stream = stream_ranks(topology, local)
        stream_tensors = [shards[r] for r in stream]
        reduced = ring_allreduce(stream_tensors)
        for r, tensor in zip(stream, reduced):
            shards[r] = tensor

    # Phase 3: per-node all-gather reassembling segments 0..n-1.
    out: list[np.ndarray | None] = [None] * topology.world_size
    for node in range(m):
        group_ranks = node_ranks(topology, node)
        gathered = ring_all_gather_unequal([shards[r] for r in group_ranks])
        for r, full in zip(group_ranks, gathered):
            out[r] = full
    assert all(o is not None for o in out)
    return [o for o in out if o is not None]


def sparse_allgather_reduce(vectors: Sequence[SparseVector]) -> list[np.ndarray]:
    """The NaiveAG aggregation: all-gather (values, indices), then each
    worker scatter-adds every contribution into a dense buffer.

    Returns the per-worker dense aggregate (identical across workers).
    """
    if not vectors:
        raise ValueError("sparse_allgather_reduce: empty worker group")
    length = vectors[0].length
    dtype = vectors[0].values.dtype
    for rank, v in enumerate(vectors):
        if v.length != length:
            raise ValueError(
                f"sparse_allgather_reduce: rank {rank} length {v.length} != {length}"
            )
    dense = np.zeros(length, dtype=dtype)
    for v in vectors:
        np.add.at(dense, v.indices, v.values)
    return [dense.copy() for _ in range(len(vectors))]
