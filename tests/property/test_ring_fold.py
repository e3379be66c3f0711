"""Property: a column-range ring fold is the reduce-scatter's columns.

``collectives.reduce_scatter.ring_fold`` folds columns ``[start, start +
L)`` of a ``(p, d)`` matrix in the ring order of the chunk each column
belongs to (NCCL bounds over the full ``d``).  The trainer's node-sum
route folds a gradient range by range and slab by slab, so every range
must give exactly ``matrix_reduce_scatter``'s columns, and so must any
split of ``[0, d)`` into consecutive ranges.  Checked as equal bits and
equal signs of zero, on data mixing 1e-8 / 1 / 1e8 magnitudes with exact
``-0.0`` entries, for p = 1..9, d with p ∤ d, short chunks (the
reduce-scatter's diagonal fold) included, float32 and float64.  The
negative control: the same columns summed in rank order differ.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")  # optional dep; CI installs it

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.collectives.reduce_scatter import matrix_reduce_scatter, ring_fold
from tests.models.kernel_oracles import assert_same_bits, mixed_magnitudes


@st.composite
def fold_cases(draw):
    p = draw(st.integers(1, 9))
    d = draw(st.integers(p, 60 * p))
    if p > 1:
        assume(d % p)
    start = draw(st.integers(0, d))
    length = draw(st.integers(0, d - start))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return p, d, start, length, dtype


@settings(max_examples=300, deadline=None)
@given(case=fold_cases(), seed=st.integers(0, 2**16))
def test_a_column_range_folds_to_the_reduce_scatters_columns(case, seed):
    p, d, start, length, dtype = case
    mat = mixed_magnitudes(np.random.default_rng(seed), (p, d)).astype(dtype)
    want = matrix_reduce_scatter(mat)[start : start + length]
    out = np.full(length, np.nan, dtype=dtype)
    assert ring_fold(mat[:, start : start + length], d, start, out) is out
    assert_same_bits(out, want)


@settings(max_examples=150, deadline=None)
@given(
    p=st.integers(1, 9),
    d=st.integers(1, 400),
    cuts=st.lists(st.integers(0, 400), max_size=8),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**16),
)
def test_any_split_of_the_columns_folds_to_the_whole(p, d, cuts, dtype, seed):
    mat = mixed_magnitudes(np.random.default_rng(seed), (p, d)).astype(dtype)
    edges = sorted({0, d, *(cut % (d + 1) for cut in cuts)})
    out = np.full(d, np.nan, dtype=dtype)
    for lo, hi in zip(edges, edges[1:]):
        ring_fold(mat[:, lo:hi], d, lo, out[lo:hi])
    assert_same_bits(out, matrix_reduce_scatter(mat))


def test_rank_order_is_not_the_ring_order():
    """Negative control: summing chunk 0 from rank 0 up gives other bits."""
    p, d = 5, 5 * 40
    mat = mixed_magnitudes(np.random.default_rng(0), (p, d))
    chunk = slice(0, d // p)
    rank_order = mat[0, chunk].copy()
    for row in mat[1:]:
        rank_order += row[chunk]
    assert not np.array_equal(ring_fold(mat[:, chunk], d, 0, np.empty(d // p)), rank_order)


@pytest.mark.parametrize("start, length", [(-1, 3), (8, 3), (0, 11)])
def test_a_range_outside_the_matrix_is_refused(start, length):
    with pytest.raises(ValueError, match=r"^ring_fold: columns \["):
        ring_fold(np.zeros((3, length)), 10, start, np.zeros(length))
