"""Ring Reduce-Scatter.

Step 1 of the paper's HiTopKComm (Algorithm 2) is an intra-node
Reduce-Scatter: after it, GPU ``j`` of a node holds the node-local sum of
segment ``j`` of the gradient (paper Eq. 4).  The ring algorithm runs
``p - 1`` steps; at each step every worker sends one partially-reduced
chunk to its successor, which matches the cost form of paper Eq. (7):
``(n-1) * alpha + (n-1) * (D/n) * beta``.
"""

from __future__ import annotations

import numpy as np

from repro.utils.partition import chunk_bounds


def matrix_reduce_scatter(mat: np.ndarray) -> np.ndarray:
    """Vectorised ring reduce-scatter over a ``(p, d)`` gradient matrix.

    Returns the flat ``(d,)`` vector whose chunk ``w`` (NCCL bounds) is
    the reduced chunk owned by worker ``w`` — i.e. the rank-order
    concatenation of what the step-by-step ring schedule leaves on each
    worker, bit for bit.

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


__all__ = ["matrix_reduce_scatter"]
