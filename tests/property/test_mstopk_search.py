"""Property: the narrowed MSTopK search equals a full-pass Algorithm 1.

``mstopk_threshold_search`` and ``mstopk_threshold_search_batch`` share
one implementation that compares only the still-undecided elements, so
"batch == scalar" proves nothing about it.  The oracle below is the
paper's loop written out — one count over the *whole* shard per
sampling, no narrowing, no early stop — and hypothesis drives the
shapes the narrowing could get wrong: ties at the max and at the
threshold, constant and all-zero shards (where the mean can round above
the max and reverse the threshold order), ``k`` of ``1``, ``d - 1`` and
``d``, unequal shard lengths, float32 and float64.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")  # optional dep; CI installs it

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.mstopk import ThresholdSearchResult, mstopk_select, mstopk_select_batch
from repro.utils.seeding import new_rng
from tests.compression.topk_oracles import (
    mstopk_threshold_search,
    mstopk_threshold_search_batch,
)


def full_pass_search(magnitude: np.ndarray, k: int, n: int) -> ThresholdSearchResult:
    mean, top = float(magnitude.mean()), float(magnitude.max())
    lo, hi, k1, k2 = 0.0, 1.0, 0, magnitude.size
    thres1, thres2, found1, found2 = 0.0, 0.0, False, False
    for _ in range(n):
        ratio = lo + (hi - lo) / 2.0
        thres = mean + ratio * (top - mean)
        nnz = int(np.count_nonzero(magnitude >= thres))
        if nnz <= k:
            hi = ratio
            if nnz > k1 or not found1:
                k1, thres1, found1 = nnz, thres, True
        else:
            lo = ratio
            if nnz < k2:
                k2, thres2, found2 = nnz, thres, True
    return ThresholdSearchResult(thres1, thres2, k1, k2, n, found1, found2)


@st.composite
def shards(draw):
    """One shard: few distinct levels (ties everywhere), a constant, all
    zeros, or continuous noise — scaled so float rounding matters."""
    d = draw(st.integers(1, 48))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    kind = draw(st.sampled_from(["levels", "constant", "zeros", "noise", "top-ties"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    scale = draw(st.sampled_from([1.0, 0.1, 1e-3, 3.3e7]))
    if kind == "levels":
        x = rng.integers(-3, 4, size=d).astype(np.float64)
    elif kind == "constant":
        x = np.full(d, draw(st.sampled_from([0.1, 0.7, 1.0 / 3.0, -2.3])))
    elif kind == "zeros":
        x = np.zeros(d)
    elif kind == "noise":
        x = rng.standard_normal(d)
    else:  # most of the mass tied at the maximum
        x = np.where(rng.random(d) < 0.7, 5.0, rng.standard_normal(d))
    return (x * scale).astype(dtype)


def ks_for(draw, d: int, lowest: int = 1) -> int:
    return draw(st.sampled_from(sorted({lowest, max(lowest, d - 1), d})) | st.integers(lowest, d))


@given(data=st.data(), n=st.sampled_from([1, 4, 30]))
@settings(max_examples=300, deadline=None)
def test_search_equals_full_pass_oracle(data, n):
    batch = data.draw(st.lists(shards(), min_size=1, max_size=5))
    ks = [ks_for(data.draw, x.size) for x in batch]
    magnitudes = [np.abs(x) for x in batch]
    want = [full_pass_search(m, k, n) for m, k in zip(magnitudes, ks)]
    assert mstopk_threshold_search_batch(magnitudes, ks, n) == want
    assert [mstopk_threshold_search(m, k, n) for m, k in zip(magnitudes, ks)] == want


@given(data=st.data(), seed=st.integers(0, 2**16))
@settings(max_examples=200, deadline=None)
def test_select_batch_matches_per_shard_select_and_the_oracle_bracket(data, seed):
    batch = data.draw(st.lists(shards(), min_size=1, max_size=5))
    ks = [ks_for(data.draw, x.size, lowest=0) for x in batch]
    rng_batch, rng_scalar = new_rng(seed), new_rng(seed)
    got = mstopk_select_batch(batch, ks, rng=rng_batch)
    for x, k, sv in zip(batch, ks, got):
        one = mstopk_select(x, k, rng=rng_scalar)
        np.testing.assert_array_equal(sv.indices, one.indices)
        assert sv.values.tobytes() == one.values.tobytes() == x[sv.indices].tobytes()
        assert sv.nnz == k == np.unique(sv.indices).size
        if 0 < k < x.size:
            search = full_pass_search(np.abs(x), k, 30)
            if search.found1 and search.k1 <= k:
                sure = np.flatnonzero(np.abs(x) >= search.thres1)
                assert np.isin(sure, sv.indices).all()
    assert rng_batch.bit_generator.state == rng_scalar.bit_generator.state
