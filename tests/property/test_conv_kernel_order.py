"""Property: the rewritten strided passes keep their summation order.

``avg_pool2d``'s forward / backward and ``conv2d_cnhw``'s col2im run as
strided-slice adds and whole-slab adds; the multi-axis ``mean``, the
broadcast + reshape and the ``k * k`` strided in-place adds they replaced
are the oracles (``tests/models/kernel_oracles.py``).  "The same IEEE
additions in the same order" is checked as ``array_equal`` *and* equal
``signbit``, on data mixing 1e-8 / 1 / 1e8 magnitudes with exact ``-0.0``
entries, over the shapes a reordering could hide in: every pool kernel
1..5 (one-column outputs included, where only the stated order is the
oracle), conv kernels 1 / 3 / 5 at strides 1..3 and paddings 0..2,
``(H - k) % stride != 0`` included, with and without gradient
destinations.  The negative control (a sequential window sum must
differ) is ``tests/models/test_autodiff.py``'s.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")  # optional dep; CI installs it

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.models.kernel_oracles import check_conv_cnhw_bits, check_pool_bits, mixed_magnitudes


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 3),
    c=st.integers(1, 3),
    out_h=st.integers(1, 4),
    out_w=st.integers(1, 4),
    kernel=st.integers(1, 5),
    destination=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_pool_sums_in_the_stated_order(n, c, out_h, out_w, kernel, destination, seed):
    rng = np.random.default_rng(seed)
    x_val = mixed_magnitudes(rng, (n, c, out_h * kernel, out_w * kernel))
    check_pool_bits(x_val, mixed_magnitudes(rng, (n, c, out_h, out_w)), kernel, destination)


@st.composite
def conv_cases(draw):
    kernel = draw(st.sampled_from([1, 3, 5]))
    stride = draw(st.integers(1, 3))
    padding = draw(st.integers(0, 2))
    least = max(1, kernel - 2 * padding)
    h = draw(st.integers(least, least + 6))
    w = draw(st.integers(least, least + 6))
    c, n, out_c = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return c, n, h, w, out_c, kernel, stride, padding


@settings(max_examples=150, deadline=None)
@given(case=conv_cases(), destinations=st.booleans(), seed=st.integers(0, 2**16))
def test_conv_cnhw_sums_in_the_replaced_order(case, destinations, seed):
    c, n, h, w, out_c, kernel, stride, padding = case
    rng = np.random.default_rng(seed)
    x_val = mixed_magnitudes(rng, (c, n, h, w))
    w_val = mixed_magnitudes(rng, (out_c, c, kernel, kernel))
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    grad = mixed_magnitudes(rng, (out_c, n, out_h, out_w))
    check_conv_cnhw_bits(x_val, w_val, stride, padding, grad, destinations)
