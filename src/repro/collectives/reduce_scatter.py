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

#: Chunk length below which (for ``p > 4``) the fold runs one ring step
#: across all chunks at a time.  Its time over the chunk-major fold's
#: (float32 and float64, 2-core x86 host): 0.1–0.4x at ``p`` = 64 with
#: chunks of 16–512 elements — ``(128, 862)`` 1.6 ms against 16 ms —
#: and 0.65–0.95x at ``p`` = 8 up to 2 048; 1.1–1.5x from 4 096 on, as
#: at ``(8, 304144)``, where the chunk-major fold keeps the accumulating
#: chunk in cache and the diagonal one streams the whole output once a
#: step.  At ``p <= 4`` the chunk-major fold issues no more adds and
#: wins at every length.
_DIAGONAL_BELOW = 2048


def _diagonal_fold(mat: np.ndarray, out: np.ndarray) -> None:
    """The ring fold of ``(p, d)`` ``mat`` into ``out``, one ring step
    across all chunks per call.

    Step ``t`` reads row ``(c + t) % p`` for every chunk ``c``.  Viewed
    as a ``(p, chunks, length)`` grid, the chunks of one length read two
    diagonals of it, split where the row index wraps, so the whole fold
    is ``p`` adds of at most four diagonal views (two when every chunk
    has the same length) into the output; the first is a copy, which
    leaves ``x[c+1] + x[c+2]`` the same IEEE add.
    """
    p, d = mat.shape
    # NCCL bounds: chunks [0, extra) hold ``base + 1`` elements, the rest
    # ``base`` — two groups of equal-length chunks, each a grid view.
    base, extra = divmod(d, p)
    split = extra * (base + 1)
    groups = []
    for first, chunks, length, cols in (
        (0, extra, base + 1, slice(0, split)),
        (extra, p - extra, base, slice(split, d)),
    ):
        if chunks and length:
            grid = mat[:, cols].reshape(p, chunks, length)
            dst = out[cols].reshape(chunks, length)
            groups.append((first, grid, dst))
    for t in range(1, p + 1):
        for first, grid, dst in groups:
            # Chunk ``first + j`` reads row ``j + s`` while it is < p,
            # row ``j + s - p`` after: the grid's diagonals at offsets
            # ``-s`` and ``p - s``, each clipped to the rows that exist.
            s = first + t
            head = grid.diagonal(-s, 0, 1).T
            tail = grid.diagonal(p - s, 0, 1).T
            cut = head.shape[0]
            for part, rows in ((head, dst[:cut]), (tail, dst[cut:])):
                if t == 1:
                    np.copyto(rows, part)
                else:
                    rows += part


def ring_fold(rows: np.ndarray, d: int, start: int, out: np.ndarray) -> np.ndarray:
    """The ring reduce-scatter of a ``(p, d)`` matrix, on its columns
    ``[start, start + L)`` only, given as the ``(p, L)`` ``rows``.

    Each element of chunk ``c`` (NCCL bounds over the full ``d``) is
    added in the ring schedule's order ``x[c+1] + x[c+2] + ... + x[c]``
    (indices mod ``p``) into ``out`` (``(L,)``), which is returned.  The
    order is elementwise, so any split of the columns into ranges gives
    the bits of the whole fold: a caller may fold a gradient slab by
    slab while each is still in cache.  Each chunk the range meets is
    one contiguous slice add per ring step, so the accumulating slice
    stays in cache.
    """
    p, length = rows.shape
    if not 0 <= start <= start + length <= d:
        raise ValueError(f"ring_fold: columns [{start}, {start + length}) outside [0, {d})")
    if p == 1:
        np.copyto(out, rows[0])
        return out
    if p == 2:
        # Both chunks fold as one commutative pairwise add.
        return np.add(rows[0], rows[1], out=out)
    for c, (lo, hi) in enumerate(chunk_bounds(d, p)):
        lo, hi = max(lo, start) - start, min(hi, start + length) - start
        if lo >= hi:
            continue
        acc = out[lo:hi]
        np.add(rows[(c + 1) % p, lo:hi], rows[(c + 2) % p, lo:hi], out=acc)
        for t in range(3, p + 1):
            acc += rows[(c + t) % p, lo:hi]
    return out


def matrix_reduce_scatter(mat: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """Vectorised ring reduce-scatter over a ``(p, d)`` gradient matrix.

    Returns the flat ``(d,)`` vector whose chunk ``w`` (NCCL bounds) is
    the reduced chunk owned by worker ``w`` — i.e. the rank-order
    concatenation of what the step-by-step ring schedule leaves on each
    worker, bit for bit.  ``out`` (a ``(d,)`` array of ``mat``'s dtype)
    receives it instead of a fresh array.

    The ring schedule accumulates chunk ``c`` in the fixed order
    ``x[c+1] + x[c+2] + ... + x[c]`` (indices mod ``p``); both folds
    below add in exactly that order and read every element of ``mat``
    once.  Long chunks fold one at a time (:func:`ring_fold` over all
    ``d`` columns).  Short chunks fold one ring step at a time across
    all chunks (:func:`_diagonal_fold`): ``O(p)`` NumPy calls instead
    of ``p (p - 1)``.  The split is :data:`_DIAGONAL_BELOW`.
    """
    mat = np.asarray(mat)
    if mat.ndim != 2:
        raise ValueError(f"matrix_reduce_scatter: need a (p, d) matrix, got {mat.shape}")
    p, d = mat.shape
    if p == 0:
        raise ValueError("matrix_reduce_scatter: empty worker group")
    if out is None:
        out = np.empty(d, dtype=mat.dtype)
    elif out.shape != (d,) or out.dtype != mat.dtype:
        raise ValueError(
            f"matrix_reduce_scatter: out is {out.dtype}{out.shape}, need {mat.dtype}({d},)"
        )
    if p > 4 and d // p < _DIAGONAL_BELOW:
        _diagonal_fold(mat, out)
        return out
    return ring_fold(mat, d, 0, out)


__all__ = ["matrix_reduce_scatter", "ring_fold"]
