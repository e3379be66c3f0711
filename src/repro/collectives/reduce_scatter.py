"""Ring Reduce-Scatter.

Step 1 of the paper's HiTopKComm (Algorithm 2) is an intra-node
Reduce-Scatter: after it, GPU ``j`` of a node holds the node-local sum of
segment ``j`` of the gradient (paper Eq. 4).  The ring algorithm runs
``p - 1`` steps; at each step every worker sends one partially-reduced
chunk to its successor, which matches the cost form of paper Eq. (7):
``(n-1) * alpha + (n-1) * (D/n) * beta``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.collectives.primitives import validate_group
from repro.utils.partition import chunk_bounds


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


def matrix_reduce_scatter(mat: np.ndarray) -> np.ndarray:
    """Vectorised ring reduce-scatter over a ``(p, d)`` gradient matrix.

    Returns the flat ``(d,)`` vector whose chunk ``w`` (NCCL bounds) is
    the reduced chunk owned by worker ``w`` — i.e. the rank-order
    concatenation of :func:`ring_reduce_scatter`'s outputs, bit for bit.

    The ring schedule accumulates chunk ``c`` in the fixed order
    ``x[c+1] + x[c+2] + ... + x[c]`` (indices mod ``p``).  Each owner
    chunk is folded in exactly that order with ``p - 1`` contiguous
    slice adds straight into the output, so every element of ``mat`` is
    read once and nothing wider than a chunk is ever materialised.
    """
    mat = np.asarray(mat)
    if mat.ndim != 2:
        raise ValueError(f"matrix_reduce_scatter: need a (p, d) matrix, got {mat.shape}")
    p, d = mat.shape
    if p == 0:
        raise ValueError("matrix_reduce_scatter: empty worker group")
    if p == 1:
        return mat[0].copy()
    if p == 2:
        # Both chunks fold as one commutative pairwise add.
        return mat[0] + mat[1]
    out = np.empty(d, dtype=mat.dtype)
    for c, (start, end) in enumerate(chunk_bounds(d, p)):
        acc = out[start:end]
        np.add(mat[(c + 1) % p, start:end], mat[(c + 2) % p, start:end], out=acc)
        for t in range(3, p + 1):
            acc += mat[(c + t) % p, start:end]
    return out


def reference_reduce_scatter(tensors: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Direct (non-ring) reference: sum then shard.  Used by tests."""
    arrays = validate_group(tensors, name="reference_reduce_scatter")
    total = arrays[0].copy()
    for arr in arrays[1:]:
        total += arr
    bounds = chunk_bounds(total.size, len(arrays))
    return [total[start:end].copy() for start, end in bounds]


__all__ = ["ring_reduce_scatter", "matrix_reduce_scatter", "reference_reduce_scatter"]
