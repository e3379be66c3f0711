"""DGC double-sampling top-k (Lin et al. 2018), the Fig. 6 baseline.

Deep Gradient Compression estimates the selection threshold from a
random sample: run an exact top-k on ``sample_fraction * d`` sampled
magnitudes to get a threshold, select every element above it, and — if
the estimate overshoots — run a *second* exact top-k on the candidate
set.  The paper's critique (§6): "it also requires at least two times of
top-k operations on GPUs", so it inherits part of the sort cost MSTopK
avoids.
"""

from __future__ import annotations

import math

import numpy as np

from repro.collectives.sparse import SparseVector
from repro.compression.base import TopKCompressor
from repro.compression.exact_topk import topk_argpartition
from repro.utils.seeding import RandomState, new_rng


class DGCTopK(TopKCompressor):
    """Double-sampling approximate top-k.

    Parameters
    ----------
    sample_fraction:
        Fraction of elements sampled for threshold estimation (DGC uses
        0.1%–1% at ImageNet scale; we default to 1%).  The threshold
        is sampled at rank ``k * sample_fraction``.
    """

    def __init__(self, sample_fraction: float = 0.01) -> None:
        if not 0 < sample_fraction <= 1:
            raise ValueError(
                f"sample_fraction must be in (0, 1], got {sample_fraction}"
            )
        self.sample_fraction = sample_fraction
        self.name = "DGC"

    def select(
        self, x: np.ndarray, k: int, *, rng: RandomState | None = None
    ) -> SparseVector:
        x = self._validate(x, k)
        if k == 0:
            return SparseVector(
                np.empty(0, dtype=x.dtype), np.empty(0, dtype=np.int64), x.size
            )
        if k == x.size:
            return SparseVector(x.copy(), np.arange(x.size, dtype=np.int64), x.size)
        rng = rng if rng is not None else new_rng()

        magnitude = np.abs(x)
        d = x.size
        sample_size = max(1, int(d * self.sample_fraction))
        sample_idx = rng.integers(0, d, size=sample_size)
        sample = magnitude[sample_idx]

        # First top-k: on the sample, at the scaled rank.
        sample_k = min(
            sample_size, max(1, int(math.ceil(k * self.sample_fraction)))
        )
        thres = float(
            np.partition(sample, sample_size - sample_k)[sample_size - sample_k]
        )

        candidates = np.flatnonzero(magnitude >= thres)
        if candidates.size >= k:
            # Second top-k: exact selection among the candidates.
            sub = topk_argpartition(x[candidates], k)
            indices = candidates[sub.indices].astype(np.int64)
        else:
            # Threshold overshot (sample missed the tail): fall back to an
            # exact selection over the full vector, as real DGC
            # implementations do on estimation failure.
            indices = topk_argpartition(x, k).indices
        return SparseVector(x[indices], indices, x.size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DGCTopK(sample_fraction={self.sample_fraction})"


__all__ = ["DGCTopK"]
