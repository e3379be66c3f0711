"""Reference (pre-vectorisation) aggregation paths.

The hot-path engine replaced the per-worker Python loops of every
scheme's ``aggregate`` with matrix-native implementations that are
pinned bit-identical to the originals.  This module keeps the original
loop-per-rank algorithms alive, verbatim, for one purpose: they are the
oracle of ``tests/perf/test_vectorized_parity.py`` — ``TestSchemeParity``
proves every registered scheme reproduces these reference results
(outputs, wire accounting, error-feedback residuals, and rng stream) bit
for bit at any shape and seed, and ``ReferenceTrainer`` steps a whole
trainer through them.

:func:`legacy_aggregate` dispatches on the scheme type and reuses the
scheme's own state (compressor, error feedback, time model), so a
reference step advances EF residuals exactly like the original did.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.collectives.sparse import SparseVector
from repro.comm.base import AggregationResult, CommScheme
from repro.comm.dense import RingAllReduce, Torus2DAllReduce, TreeAllReduce
from repro.comm.gtopk import GlobalTopK, merge_topk
from repro.comm.hitopkcomm import HiTopKComm
from repro.comm.naive_allgather import NaiveAllGather
from repro.compression.base import density_to_k
from repro.utils.partition import chunk_bounds
from repro.utils.seeding import RandomState
from tests.collectives.list_collectives import (
    node_ranks,
    ring_allreduce,
    ring_reduce_scatter,
    sparse_allgather_reduce,
    torus_allreduce_2d,
    tree_allreduce,
)


def _legacy_dense(
    scheme: RingAllReduce | TreeAllReduce | Torus2DAllReduce,
    worker_grads: Sequence[np.ndarray],
) -> AggregationResult:
    arrays = scheme._check_world(worker_grads)
    d = arrays[0].size
    if isinstance(scheme, RingAllReduce):
        outputs = ring_allreduce(arrays)
        inter = intra = 2.0 * d * scheme.wire_bytes
    elif isinstance(scheme, TreeAllReduce):
        outputs = tree_allreduce(arrays)
        inter = scheme.traffic_factor * d * scheme.wire_bytes
        intra = 2.0 * d * scheme.wire_bytes
    else:
        outputs = torus_allreduce_2d(arrays, scheme.topology)
        inter = intra = 2.0 * d * scheme.wire_bytes
    return AggregationResult(
        outputs=outputs,
        breakdown=scheme.time_model(d),
        inter_bytes=inter,
        intra_bytes=intra,
    )


def _legacy_naiveag(
    scheme: NaiveAllGather,
    worker_grads: Sequence[np.ndarray],
    rng: RandomState | None,
) -> AggregationResult:
    arrays = scheme._check_world(worker_grads)
    d = arrays[0].size
    k = density_to_k(d, scheme.density)

    selections = []
    for rank, grad in enumerate(arrays):
        corrected = scheme.ef.apply(rank, grad) if scheme.ef is not None else grad
        sent = scheme.compressor.select(corrected, k, rng=rng)
        if scheme.ef is not None:
            scheme.ef.update(rank, corrected, sent)
        selections.append(sent)

    outputs = sparse_allgather_reduce(selections)
    pair_bytes = k * (scheme.value_bytes + scheme.index_bytes)
    return AggregationResult(
        outputs=outputs,
        breakdown=scheme.time_model(d),
        inter_bytes=(scheme.topology.world_size - 1) * pair_bytes,
        intra_bytes=(scheme.topology.world_size - 1) * pair_bytes,
        extras={"k": k, "selections": selections},
    )


def _legacy_gtopk(
    scheme: GlobalTopK,
    worker_grads: Sequence[np.ndarray],
    rng: RandomState | None,
) -> AggregationResult:
    arrays = scheme._check_world(worker_grads)
    d = arrays[0].size
    k = density_to_k(d, scheme.density)

    selections: list[SparseVector] = []
    for rank, grad in enumerate(arrays):
        corrected = scheme.ef.apply(rank, grad) if scheme.ef is not None else grad
        sent = scheme.compressor.select(corrected, k, rng=rng)
        if scheme.ef is not None:
            scheme.ef.update(rank, corrected, sent)
        selections.append(sent)

    current: list[SparseVector | None] = list(selections)
    p = len(current)
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
    outputs = [dense.copy() for _ in range(p)]

    pair_bytes = k * (scheme.value_bytes + scheme.index_bytes)
    rounds = math.ceil(math.log2(max(2, p)))
    return AggregationResult(
        outputs=outputs,
        breakdown=scheme.time_model(d),
        inter_bytes=rounds * pair_bytes,
        intra_bytes=rounds * pair_bytes,
        extras={"k": k, "global_nnz": final.nnz, "selections": selections},
    )


def _legacy_hitopk(
    scheme: HiTopKComm,
    worker_grads: Sequence[np.ndarray],
    rng: RandomState | None,
) -> AggregationResult:
    arrays = scheme._check_world(worker_grads)
    topo = scheme.topology
    m, n = topo.num_nodes, topo.gpus_per_node
    d = arrays[0].size
    bounds = chunk_bounds(d, n)

    # Step 1: intra-node ring reduce-scatter (per node, in parallel).
    shards: dict[int, np.ndarray] = {}
    for node in range(m):
        group = [arrays[r] for r in node_ranks(topo, node)]
        for local, shard in enumerate(ring_reduce_scatter(group)):
            shards[topo.rank(node, local)] = shard

    # Step 2: per-shard top-k selection with shard-resident EF.
    selections: dict[int, SparseVector] = {}
    for rank_, shard in shards.items():
        corrected = scheme.ef.apply(rank_, shard) if scheme.ef is not None else shard
        k_tilde = density_to_k(corrected.size, scheme.density)
        sent = scheme.compressor.select(corrected, k_tilde, rng=rng)
        if scheme.ef is not None:
            scheme.ef.update(rank_, corrected, sent)
        selections[rank_] = sent

    # Step 3: inter-node all-gather per stream + scatter-add.
    stream_accumulators: list[np.ndarray] = []
    for local in range(n):
        start, end = bounds[local]
        acc = np.zeros(end - start, dtype=arrays[0].dtype)
        for node in range(m):
            sent = selections[topo.rank(node, local)]
            np.add.at(acc, sent.indices, sent.values)
        stream_accumulators.append(acc)

    # Step 4: intra-node all-gather reassembles the full vector.
    full = np.concatenate(stream_accumulators)
    outputs = [full.copy() for _ in range(topo.world_size)]

    k_tilde = density_to_k(bounds[0][1] - bounds[0][0], scheme.density)
    pair_bytes = k_tilde * (scheme.value_bytes + scheme.index_bytes)
    return AggregationResult(
        outputs=outputs,
        breakdown=scheme.time_model(d),
        inter_bytes=(m - 1) * pair_bytes * n,
        intra_bytes=2.0 * d * scheme.dense_wire_bytes / n * (n - 1),
        extras={"k_tilde": k_tilde, "selections": selections},
    )


def legacy_aggregate(
    scheme: CommScheme,
    worker_grads: Sequence[np.ndarray],
    *,
    rng: RandomState | None = None,
) -> AggregationResult:
    """Run ``scheme``'s aggregation with the pre-vectorisation algorithm.

    Accepts the same inputs as ``scheme.aggregate`` (a rank-indexed list
    or a ``(W, d)`` matrix) and mutates the scheme's error-feedback
    state exactly like the original per-rank loops did.
    """
    if isinstance(worker_grads, np.ndarray) and worker_grads.ndim == 2:
        worker_grads = list(worker_grads)
    if isinstance(scheme, (RingAllReduce, TreeAllReduce, Torus2DAllReduce)):
        return _legacy_dense(scheme, worker_grads)
    if isinstance(scheme, HiTopKComm):
        return _legacy_hitopk(scheme, worker_grads, rng)
    if isinstance(scheme, GlobalTopK):
        return _legacy_gtopk(scheme, worker_grads, rng)
    if isinstance(scheme, NaiveAllGather):
        return _legacy_naiveag(scheme, worker_grads, rng)
    raise TypeError(
        f"no legacy reference path for scheme type {type(scheme).__name__}"
    )

