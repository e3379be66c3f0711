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
from dataclasses import dataclass, field
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
    #: Ascending shard positions holding every element at or above
    #: ``thres2``, when the search kept track of them; ``None`` sends
    #: the gather over the whole shard.
    reach: np.ndarray | None = field(default=None, compare=False, repr=False)


#: Undecided-set size at or below which the search sorts what is left
#: and answers every remaining sampling with one ``searchsorted``.  A
#: narrowing pass costs ≈ 4–5 µs of NumPy calls however few elements
#: remain, a ``searchsorted`` ≈ 1 µs, and sorting ``u`` float32
#: magnitudes ≈ 3 µs at ``u`` = 900 and ≈ 14 µs at 4 000.  On the
#: ``train-comm`` shards (38 018 elements, k = 380) the second pass
#: leaves 400–1 500 undecided with 9–13 samplings to go.  Selecting from
#: 192 captured shards, 16 a batch (median of 15 interleaved rounds,
#: 2-core x86 host): 194–207 µs a shard with this size anywhere in
#: 1 024–8 192, 274 µs narrowing to the end (0), 279 µs sorting the
#: whole shard (40 000).
_SORTED_TAIL_SIZE = 2048

#: A hi-step (``nnz <= k``) that decides at most ``1 / _FEW`` of the
#: undecided set leaves it where it is.  It is the usual first pass — on
#: ``train-comm`` it drops ≤ k of 38 018 — and compacting it is ≈ 25 µs
#: spent for nothing: the elements it decided stay in the array, counted
#: once in ``k1`` and subtracted as ``carried`` from later counts, since
#: every later threshold is at or below theirs.  A lo-step that keeps that much compacts by boolean
#: index (fast on long runs of kept elements); every other pass by
#: ``take(flatnonzero(keep))`` (fast on scattered ones: 17 µs against
#: 35 µs keeping 1 746 of 38 018), which also yields the kept elements'
#: shard positions.  On the shards above: 221–234 µs a shard for
#: ``_FEW`` from 2 to 32, 318 µs with every pass compacted by ``take``.
_FEW = 16


def _threshold_search(
    magnitude: np.ndarray, k: int, n_samplings: int, shard: int
) -> ThresholdSearchResult:
    """Algorithm 1 lines 1–24 on one shard, comparing only undecided elements.

    A pass with ``nnz <= k`` lowers the upper end of the ratio interval
    and one with ``nnz > k`` raises the lower end, so every later
    threshold lies between the two bracketing ones: the ``k1`` elements
    at or above ``thres1`` are counted by all of them and the elements
    below ``thres2`` by none.  After any pass every later count is
    therefore ``k1 + #(undecided >= t)``, and the result equals that of
    ``N`` full passes over the shard field for field.  (Where the mean
    of a near-constant shard rounds above its max the thresholds *fall*
    as the ratio rises; the search then never turns round, and nothing
    after its first pass changes the result either way.)

    Two ways answer that count.  While more than
    :data:`_SORTED_TAIL_SIZE` elements are undecided, a pass compares
    them and keeps the side still undecided (see :data:`_FEW` for the
    hi-steps that keep their array).  Then they are sorted once, and each
    remaining sampling is one ``searchsorted`` of the threshold cast to
    the dtype ``magnitude >= thres`` compares in (the magnitudes' own,
    for floats): its count is ``k1`` plus the elements from the cut up
    to those decided above, ``ordered[edge:]``.  Elements decided below
    sit under every later cut and need no bound.  (Where the thresholds
    fall as the ratio rises, a cut may pass ``edge``; the count then errs
    on the side the step already takes, and changes nothing.)
    Once ``k1 == k`` and ``k2 == k + 1`` no count can move, and the
    remaining samplings are skipped; ``iterations`` still reports the
    ``N`` the GPU kernel runs.

    A lo-step drops only elements below its threshold, and so below the
    final ``thres2``.  Until a hi-step compacts (dropping elements that
    belong to the head), the candidates therefore still hold every
    element the gather wants; their shard positions, known while every
    compaction went through ``take``, come back as ``reach``.
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
    carried = 0  # decided-above elements still in ``candidates`` (all on top)
    positions = None  # shard positions of ``candidates`` (None: the whole shard)
    tracked = True  # ``positions`` known, and no decided-above element dropped
    ordered = None  # ``candidates`` sorted, once few are undecided

    for _ in range(n_samplings):
        if k1 == k and k2 <= k + 1:
            break
        if ordered is None and candidates.size - carried <= _SORTED_TAIL_SIZE:
            ordered = np.sort(candidates)
            cast = np.result_type(ordered, mean).type  # what ``>= thres`` compares in
            edge = ordered.size - carried  # ``ordered[edge:]`` is decided above
        ratio = lo + (hi - lo) / 2.0
        thres = mean + ratio * span
        if ordered is None:
            above = candidates >= thres
            n_above = int(np.count_nonzero(above))
            nnz = k1 + n_above - carried
        else:
            cut = int(ordered.searchsorted(cast(thres)))
            nnz = k1 + edge - cut
        if nnz <= k:
            hi = ratio
            if nnz > k1 or not found1:
                k1, thres1, found1 = nnz, thres, True
            if ordered is not None:
                edge = cut
            elif n_above * _FEW <= candidates.size:
                carried = n_above
            else:
                candidates = candidates.take(np.flatnonzero(~above))
                carried, tracked = 0, False
        else:
            lo = ratio
            if nnz < k2:
                k2, thres2, found2 = nnz, thres, True
            if ordered is not None:
                continue  # what lies under the cut stays under every later one
            if n_above * _FEW >= candidates.size * (_FEW - 1):
                candidates, tracked = candidates[above], False
            else:
                kept = np.flatnonzero(above)
                candidates = candidates.take(kept)
                positions = kept if positions is None else positions.take(kept)

    reach = positions if tracked else None
    return ThresholdSearchResult(thres1, thres2, k1, k2, n_samplings, found1, found2, reach)


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
        # Head and band come out together: everything at or above
        # thres2, split at thres1 — found among the search's ``reach``
        # when it has one, else by one pass over the shard.  A lo-step's
        # threshold is below every hi-step's, so thres2 < thres1; when
        # the search never bracketed from below, thres2 is the 0.0
        # sentinel and the band is everything under thres1.
        if search.reach is None:
            reached = np.flatnonzero(magnitude >= search.thres2)
        else:
            reached = search.reach[magnitude.take(search.reach) >= search.thres2]
        is_head = magnitude.take(reached) >= search.thres1
        head = reached[is_head]
        # Degenerate magnitude distributions (many ties at the max) can
        # make the count at thres1 exceed k; truncate to keep exactness.
        if head.size > k:
            head = head[:k]
        band = reached[~is_head]
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
