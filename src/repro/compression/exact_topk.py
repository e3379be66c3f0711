"""Exact top-k selection.

Two implementations with very different cost profiles:

* :func:`naive_topk_sort` — full sort by magnitude, the analogue of
  TensorFlow's ``nn.topk`` that Fig. 6 shows to be "very slow";
* :func:`topk_argpartition` — ``np.argpartition`` (introselect), the
  efficient exact selection on a CPU.

Both return the exact same *set* of entries (up to ties); the sorted
variant additionally orders them by descending magnitude.
"""

from __future__ import annotations

import numpy as np

from repro.collectives.sparse import SparseVector
from repro.compression.base import TopKCompressor
from repro.utils.seeding import RandomState


def naive_topk_sort(x: np.ndarray, k: int) -> SparseVector:
    """Exact top-k via a full descending sort of ``|x|`` (the slow path)."""
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError(f"input must be 1-D, got shape {x.shape}")
    if not 0 <= k <= x.size:
        raise ValueError(f"k={k} out of range for vector of size {x.size}")
    if k == 0:
        return SparseVector(np.empty(0, dtype=x.dtype), np.empty(0, dtype=np.int64), x.size)
    order = np.argsort(np.abs(x), kind="stable")[::-1]
    indices = order[:k].astype(np.int64)
    return SparseVector(x[indices], indices, x.size)


def topk_argpartition(x: np.ndarray, k: int) -> SparseVector:
    """Exact top-k via ``np.argpartition`` (no full sort)."""
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError(f"input must be 1-D, got shape {x.shape}")
    if not 0 <= k <= x.size:
        raise ValueError(f"k={k} out of range for vector of size {x.size}")
    if k == 0:
        return SparseVector(np.empty(0, dtype=x.dtype), np.empty(0, dtype=np.int64), x.size)
    if k == x.size:
        indices = np.arange(x.size, dtype=np.int64)
        return SparseVector(x.copy(), indices, x.size)
    magnitude = np.abs(x)
    indices = np.argpartition(magnitude, x.size - k)[x.size - k :].astype(np.int64)
    return SparseVector(x[indices], indices, x.size)


class ExactTopK(TopKCompressor):
    """Exact top-k compressor: the efficient ``argpartition`` selection."""

    name = "exact-topk"

    def select(
        self, x: np.ndarray, k: int, *, rng: RandomState | None = None
    ) -> SparseVector:
        return topk_argpartition(self._validate(x, k), k)

    def select_batch(
        self,
        xs,
        ks,
        *,
        rng: RandomState | None = None,
    ) -> list[SparseVector]:
        """Batched exact selection: one axis-wise ``argpartition`` pass.

        NumPy's introselect runs independently per row, so the batched
        result is bit-identical to per-shard :func:`topk_argpartition`
        calls (pinned by the parity tests).  Unequal shard lengths and the
        ``k == 0`` / ``k == d`` edges fall back to the per-shard loop.
        """
        rows, ks = self._validate_batch(xs, ks)
        if not rows:
            return []
        d = rows[0].size
        uniform = (
            all(r.size == d for r in rows)
            and all(k == ks[0] for k in ks)
            and 0 < ks[0] < d
        )
        if not uniform:
            return [self.select(x, k, rng=rng) for x, k in zip(rows, ks)]
        k = ks[0]
        mat = xs if isinstance(xs, np.ndarray) and xs.ndim == 2 else np.stack(rows)
        magnitude = np.abs(mat)
        indices = np.argpartition(magnitude, d - k, axis=1)[:, d - k :].astype(np.int64)
        return [
            SparseVector(row[idx], idx, d) for row, idx in zip(rows, indices)
        ]


__all__ = ["ExactTopK", "naive_topk_sort", "topk_argpartition"]
