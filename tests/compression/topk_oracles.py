"""Test-side probes and references for the top-k selectors.

:func:`mstopk_threshold_search` and its batch form expose the live
Algorithm 1 search (``repro.compression.mstopk._threshold_search``, what
:func:`~repro.compression.mstopk.mstopk_select_batch` runs) so tests can
check its bracket; :func:`exact_threshold` is the exact threshold it
brackets.  :func:`two_pass_select` is Algorithm 1's gather as it was
written before head and band came out of one pass: the live
``_select_from_search`` must pick the same coordinates.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.collectives.sparse import SparseVector
from repro.compression.mstopk import (
    DEFAULT_N_SAMPLINGS,
    ThresholdSearchResult,
    _threshold_search,
)
from repro.utils.seeding import RandomState


def exact_threshold(x: np.ndarray, k: int) -> float:
    """The k-th largest magnitude of ``x`` (paper Eq. 2's ``thres``)."""
    x = np.asarray(x)
    if not 1 <= k <= x.size:
        raise ValueError(f"k={k} out of range for vector of size {x.size}")
    magnitude = np.abs(x)
    return float(np.partition(magnitude, x.size - k)[x.size - k])


def mstopk_threshold_search(
    magnitude: np.ndarray, k: int, n_samplings: int = DEFAULT_N_SAMPLINGS
) -> ThresholdSearchResult:
    """Binary-search bracketing thresholds for ``k`` on ``|x|``.

    ``magnitude`` must already be the absolute values.  Follows Algorithm
    1 exactly: the search interval is the ratio ``[l, r] ⊂ [0, 1]``
    mapped onto ``[mean, max]`` of the magnitudes.
    """
    return mstopk_threshold_search_batch([magnitude], [k], n_samplings)[0]


def mstopk_threshold_search_batch(
    magnitudes: Sequence[np.ndarray],
    ks: Sequence[int],
    n_samplings: int = DEFAULT_N_SAMPLINGS,
) -> list[ThresholdSearchResult]:
    """The threshold search on every shard (of any lengths), in order."""
    rows = [np.asarray(m) for m in magnitudes]
    if len(rows) != len(ks):
        raise ValueError(f"{len(rows)} shards but {len(ks)} k values")
    for i, row in enumerate(rows):
        if row.ndim != 1:
            raise ValueError(f"shard {i} must be 1-D, got shape {row.shape}")
    return [
        _threshold_search(row, int(k), n_samplings, i)
        for i, (row, k) in enumerate(zip(rows, ks))
    ]


def two_pass_select(
    x: np.ndarray,
    magnitude: np.ndarray,
    k: int,
    search: ThresholdSearchResult,
    rng: RandomState | None,
) -> SparseVector:
    """Algorithm 1 lines 25–29 with one pass for the head and one for
    the band (the replaced body of ``_select_from_search``, verbatim)."""
    if search.found1:
        head = np.flatnonzero(magnitude >= search.thres1)
        if head.size > k:
            head = head[:k]
        band = np.flatnonzero((magnitude < search.thres1) & (magnitude >= search.thres2))
    else:
        head = np.empty(0, dtype=np.int64)
        band = np.flatnonzero(magnitude >= search.thres2)

    need = k - head.size
    if need > 0:
        if band.size < need:
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
