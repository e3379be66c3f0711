"""Property: the narrowed MSTopK search equals a full-pass Algorithm 1.

``mstopk_threshold_search`` and ``mstopk_threshold_search_batch`` share
one implementation that compares only the still-undecided elements, so
"batch == scalar" proves nothing about it.  The oracle below is the
paper's loop written out — one count over the *whole* shard per
sampling, no narrowing, no early stop — and hypothesis drives the
shapes the narrowing could get wrong: ties at the max and exactly at the
thresholds, constant and all-zero shards (where the mean can round above
the max and reverse the threshold order), ``k`` of ``1``, ``d - 1`` and
``d``, unequal shard lengths, float32 and float64, every ``n`` from 1 to
30.  The search answers its last samplings from a sorted copy of what is
still undecided, and leaves in place the few elements a pass decides;
both size rules are patched across their whole range (sorted from the
first sampling, never sorted, in between), and full-size shards on both
sides of the default crossover are checked deterministically.  The
gather that follows the search is held to the two-pass form it
replaced: the same coordinates, the same rng draws.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")  # optional dep; CI installs it

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import mstopk
from repro.compression.mstopk import ThresholdSearchResult, mstopk_select, mstopk_select_batch
from repro.utils.seeding import new_rng
from tests.compression.topk_oracles import (
    mstopk_threshold_search,
    mstopk_threshold_search_batch,
    two_pass_select,
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


@contextmanager
def size_rules(tail: int, few: int):
    """The search's two size rules set to ``tail`` and ``few``."""
    with mock.patch.object(mstopk, "_SORTED_TAIL_SIZE", tail), mock.patch.object(
        mstopk, "_FEW", few
    ):
        yield


#: ``_FEW`` of 1 leaves every hi-step in place and gathers by boolean
#: index; a huge one compacts every pass by ``take``.
FEWS = [1, 2, mstopk._FEW, 10**9]


@st.composite
def shards(draw):
    """One shard: few distinct levels (ties everywhere), a constant, all
    zeros, continuous noise, or dyadic levels around an exact mean (the
    sampled thresholds land exactly on elements) — scaled so float
    rounding matters."""
    d = draw(st.integers(1, 300))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    kind = draw(st.sampled_from(["levels", "constant", "zeros", "noise", "top-ties", "dyadic"]))
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
    elif kind == "dyadic":
        # Mirror-image eighths around 2: the mean is exactly 2 and every
        # threshold 2 + ratio * (max - 2) is a dyadic an element can hit.
        half = rng.integers(0, 9, size=d // 2) / 8.0
        x = np.concatenate([2.0 + half, 2.0 - half, [2.0] * (d % 2)])
        x *= rng.choice([-1.0, 1.0], size=d)
        scale = draw(st.sampled_from([1.0, 2.0**-10, 2.0**20]))
    else:  # most of the mass tied at the maximum
        x = np.where(rng.random(d) < 0.7, 5.0, rng.standard_normal(d))
    return (x * scale).astype(dtype)


def ks_for(draw, d: int, lowest: int = 1) -> int:
    return draw(st.sampled_from(sorted({lowest, max(lowest, d - 1), d})) | st.integers(lowest, d))


@given(
    data=st.data(),
    n=st.integers(1, 30),
    tail=st.sampled_from([0, 5, 37, mstopk._SORTED_TAIL_SIZE, "d"]),
    few=st.sampled_from(FEWS),
)
@settings(max_examples=400, deadline=None)
def test_search_equals_full_pass_oracle(data, n, tail, few):
    batch = data.draw(st.lists(shards(), min_size=1, max_size=5))
    ks = [ks_for(data.draw, x.size) for x in batch]
    magnitudes = [np.abs(x) for x in batch]
    want = [full_pass_search(m, k, n) for m, k in zip(magnitudes, ks)]
    with size_rules(max(x.size for x in batch) if tail == "d" else tail, few):
        assert mstopk_threshold_search_batch(magnitudes, ks, n) == want
        assert [mstopk_threshold_search(m, k, n) for m, k in zip(magnitudes, ks)] == want


@given(
    data=st.data(),
    seed=st.integers(0, 2**16),
    n=st.integers(1, 30),
    few=st.sampled_from(FEWS),
    tail=st.sampled_from([0, 5, 37, mstopk._SORTED_TAIL_SIZE]),
)
@settings(max_examples=400, deadline=None)
def test_gather_picks_what_the_two_pass_gather_picked(data, seed, n, few, tail):
    # Few samplings leave k1 < k, so the band and its random run matter.
    x = data.draw(shards())
    k = ks_for(data.draw, x.size)
    if k == x.size:
        return  # mstopk_select_batch copies the shard without a search
    magnitude = np.abs(x)
    with size_rules(tail, few):
        search = mstopk._threshold_search(magnitude, k, n, 0)
    rng_live, rng_oracle = new_rng(seed), new_rng(seed)
    got = mstopk._select_from_search(x, magnitude, k, search, rng_live)
    want = two_pass_select(x, magnitude, k, search, rng_oracle)
    np.testing.assert_array_equal(got.indices, want.indices)
    assert got.values.tobytes() == want.values.tobytes()
    assert rng_live.bit_generator.state == rng_oracle.bit_generator.state


def _full_size_shard(kind: str) -> np.ndarray:
    """A ``train-comm``-sized float32 shard: Laplace tails put fewer than
    k = 380 elements above the first threshold (a hi-step keeping the
    rest), a uniform shard a quarter of them (a lo-step)."""
    rng = np.random.default_rng(7)
    draw = rng.laplace if kind == "laplace" else rng.uniform
    return draw(size=38_018).astype(np.float32)


@pytest.mark.parametrize("tail", [0, 5, 37, mstopk._SORTED_TAIL_SIZE, 4096, 38_018])
@pytest.mark.parametrize("kind, first", [("laplace", "hi"), ("uniform", "lo")])
def test_full_size_shard_equals_the_oracle_for_every_n(tail, kind, first):
    x = _full_size_shard(kind)
    magnitude, k = np.abs(x), 380
    mean, top = float(magnitude.mean()), float(magnitude.max())
    above = int(np.count_nonzero(magnitude >= mean + 0.5 * (top - mean)))
    if first == "hi":
        assert 0 < above <= k and x.size - above > 37_000
    else:
        assert above > k
    with size_rules(tail, mstopk._FEW):
        for n in range(1, 31):
            assert mstopk_threshold_search(magnitude, k, n) == full_pass_search(magnitude, k, n)
            got = mstopk_select(x, k, n_samplings=n, rng=new_rng(n))
            want = two_pass_select(x, magnitude, k, full_pass_search(magnitude, k, n), new_rng(n))
            np.testing.assert_array_equal(got.indices, want.indices)


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
