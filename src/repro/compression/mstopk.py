"""MSTopK — the paper's approximate top-k operator (§3.1, Algorithm 1).

The idea: instead of sorting, binary-search a magnitude threshold in the
range ``[mean(|x|), max(|x|)]``.  Each of the ``N`` search iterations is
a single coalesced count-above-threshold pass (GPU friendly).  After the
search, two thresholds bracket the exact one:

* ``thres1`` — the tightest threshold that selects *at most* ``k``
  elements (``k1`` of them);
* ``thres2`` — the tightest threshold that selects *more than* ``k``
  elements (``k2`` of them).

All ``k1`` elements above ``thres1`` are taken, and the remaining
``k - k1`` are drawn as a random contiguous run from the band
``thres2 <= |x| < thres1`` (Algorithm 1 lines 25–29) — contiguous so the
gather stays coalesced.  The output has *exactly* ``k`` entries, and
every element above ``thres1`` is guaranteed present, so the
approximation can only differ from exact top-k inside the band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.collectives.sparse import SparseVector
from repro.compression.base import TopKCompressor
from repro.utils.seeding import RandomState

#: Paper setting: "The number of samplings for MSTopK is 30" (Fig. 6).
DEFAULT_N_SAMPLINGS = 30


@dataclass(frozen=True)
class ThresholdSearchResult:
    """Outcome of the binary threshold search (Algorithm 1 lines 1–24).

    ``found1`` records explicitly whether ``thres1`` was ever
    established.  The previous implementation used ``thres1 == 0.0`` as
    the "unset" sentinel, which conflates "never bracketed" with a
    legitimately-zero threshold (an all-zero gradient, e.g. a frozen
    layer, with ``k == d``) and mis-brackets the selection.
    """

    thres1: float  # tightest threshold selecting k1 <= k elements
    thres2: float  # tightest threshold selecting k2 > k elements
    k1: int
    k2: int
    iterations: int
    found1: bool = False  # thres1 established (not the 0.0 sentinel)
    found2: bool = False  # thres2 established


def _threshold_search(
    magnitude: np.ndarray, k: int, n_samplings: int, shard: int
) -> ThresholdSearchResult:
    """Algorithm 1 lines 1–24 on one shard, comparing only undecided elements.

    A pass with ``nnz <= k`` lowers the upper end of the ratio interval
    and one with ``nnz > k`` raises the lower end, so every later
    threshold lies between the two bracketing ones: the ``k1`` elements
    at or above ``thres1`` are counted by all of them and the elements
    below ``thres2`` by none.  Only the ``k2 - k1`` elements in between
    are kept and compared again, and the result equals that of ``N``
    full passes over the shard field for field.  (Where the mean of a
    near-constant shard rounds above its max the thresholds *fall* as
    the ratio rises; the search then never turns round, and nothing
    after its first pass changes the result either way.)  Once
    ``k1 == k`` and ``k2 == k + 1`` no count can move either, and the
    remaining samplings are skipped; ``iterations`` still reports the
    ``N`` the GPU kernel runs.
    """
    if n_samplings < 1:
        raise ValueError(f"n_samplings must be >= 1, got {n_samplings}")
    d = magnitude.size
    if not 1 <= k <= d:
        raise ValueError(f"k={k} out of range for shard {shard} of size {d}")
    mean = float(magnitude.mean())
    top = float(magnitude.max())
    span = top - mean
    if not math.isfinite(span):
        raise ValueError(
            f"shard {shard}: non-finite gradient (max |x| = {top}, mean |x| = {mean})"
        )
    lo, hi = 0.0, 1.0
    k1, k2 = 0, d
    thres1, thres2 = 0.0, 0.0
    found1, found2 = False, False
    candidates = magnitude

    for _ in range(n_samplings):
        if k1 == k and k2 <= k + 1:
            break
        ratio = lo + (hi - lo) / 2.0
        thres = mean + ratio * span
        above = candidates >= thres
        nnz = k1 + int(np.count_nonzero(above))
        if nnz <= k:
            hi = ratio
            if nnz > k1 or not found1:
                k1 = nnz
                thres1 = thres
                found1 = True
            candidates = candidates[~above]
        else:
            lo = ratio
            if nnz < k2:
                k2 = nnz
                thres2 = thres
                found2 = True
            candidates = candidates[above]

    return ThresholdSearchResult(thres1, thres2, k1, k2, n_samplings, found1, found2)


def mstopk_select(
    x: np.ndarray,
    k: int,
    *,
    n_samplings: int = DEFAULT_N_SAMPLINGS,
    rng: RandomState | None = None,
) -> SparseVector:
    """Approximate top-k selection (Algorithm 1), returning exactly ``k`` entries.

    Parameters
    ----------
    x:
        Input vector.
    k:
        Number of entries to keep (``0 <= k <= len(x)``).
    n_samplings:
        Binary-search iterations ``N`` (paper default 30).
    rng:
        Source of the random offset for the contiguous tail run (line 27).
        ``None`` uses offset 0, which is deterministic and unbiased across
        iterations only if the gradient layout varies; training code
        passes per-worker generators.
    """
    return mstopk_select_batch([x], [k], n_samplings=n_samplings, rng=rng)[0]


def _select_from_search(
    x: np.ndarray,
    magnitude: np.ndarray,
    k: int,
    search: ThresholdSearchResult,
    rng: RandomState | None,
) -> SparseVector:
    """Algorithm 1 lines 25–29: gather the head and a contiguous tail run."""
    if search.found1:
        head = np.flatnonzero(magnitude >= search.thres1)
        # Degenerate magnitude distributions (many ties at the max) can
        # make the count at thres1 exceed k; truncate to keep exactness.
        if head.size > k:
            head = head[:k]
        band = np.flatnonzero((magnitude < search.thres1) & (magnitude >= search.thres2))
    else:
        # thres1 was never established (possible only when every sampled
        # threshold selected more than k elements, e.g. near-constant
        # vectors).  Fall back to the band above thres2.
        head = np.empty(0, dtype=np.int64)
        band = np.flatnonzero(magnitude >= search.thres2)

    need = k - head.size
    if need > 0:
        if band.size < need:
            # Not enough candidates in the band (ties / degenerate data):
            # widen to everything not already selected.
            mask = np.ones(x.size, dtype=bool)
            mask[head] = False
            band = np.flatnonzero(mask)
        max_offset = band.size - need
        if rng is None or max_offset == 0:
            offset = 0
        else:
            offset = int(rng.integers(0, max_offset + 1))
        tail = band[offset : offset + need]
        indices = np.concatenate([head, tail]).astype(np.int64)
    else:
        indices = head.astype(np.int64)

    return SparseVector(x[indices], indices, x.size)


def mstopk_select_batch(
    xs: Sequence[np.ndarray],
    ks: Sequence[int],
    *,
    n_samplings: int = DEFAULT_N_SAMPLINGS,
    rng: RandomState | None = None,
) -> list[SparseVector]:
    """Algorithm 1 on every shard, in order.

    The random tail offsets are drawn shard by shard, so one ``rng``
    serves the whole batch with the stream a per-shard loop of
    :func:`mstopk_select` would consume.
    """
    rows = [np.asarray(x) for x in xs]
    if len(rows) != len(ks):
        raise ValueError(f"{len(rows)} shards but {len(ks)} k values")
    for i, (x, k) in enumerate(zip(rows, ks)):
        if x.ndim != 1:
            raise ValueError(f"shard {i} must be 1-D, got shape {x.shape}")
        if not 0 <= k <= x.size:
            raise ValueError(f"k={k} out of range for shard {i} of size {x.size}")

    out: list[SparseVector] = []
    for i, (x, k) in enumerate(zip(rows, ks)):
        if k == 0:
            out.append(
                SparseVector(np.empty(0, dtype=x.dtype), np.empty(0, dtype=np.int64), x.size)
            )
        elif k == x.size:
            out.append(SparseVector(x.copy(), np.arange(x.size, dtype=np.int64), x.size))
        else:
            magnitude = np.abs(x)
            search = _threshold_search(magnitude, k, n_samplings, i)
            out.append(_select_from_search(x, magnitude, k, search, rng))
    return out


class MSTopK(TopKCompressor):
    """Compressor wrapper around :func:`mstopk_select`."""

    def __init__(self, n_samplings: int = DEFAULT_N_SAMPLINGS) -> None:
        if n_samplings < 1:
            raise ValueError(f"n_samplings must be >= 1, got {n_samplings}")
        self.n_samplings = n_samplings
        self.name = "MSTopK"

    def select(
        self, x: np.ndarray, k: int, *, rng: RandomState | None = None
    ) -> SparseVector:
        x = self._validate(x, k)
        return mstopk_select(x, k, n_samplings=self.n_samplings, rng=rng)

    def select_batch(
        self,
        xs,
        ks,
        *,
        rng: RandomState | None = None,
    ) -> list[SparseVector]:
        rows, ks = self._validate_batch(xs, ks)
        return mstopk_select_batch(rows, ks, n_samplings=self.n_samplings, rng=rng)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MSTopK(n_samplings={self.n_samplings})"


__all__ = [
    "DEFAULT_N_SAMPLINGS",
    "ThresholdSearchResult",
    "mstopk_select",
    "mstopk_select_batch",
    "MSTopK",
]
