"""Cost gate for the CNN step's strided passes (``train-compute``).

Forward/backward is ≈ 90 % of a ``train-compute`` step, and a third of
one ``SmallConvNet.loss_and_grad`` call used to be two numpy passes
running at 5–14 ns per element: the multi-axis ``mean`` in
``avg_pool2d`` and the ``k * k`` strided in-place adds of
``conv2d_cnhw``'s col2im.  Both now run as strided *copies* and
contiguous adds in the same summation order
(``tests/models/test_autodiff.py`` pins the bits).  This file pins the
cost, at the benchmark's shapes — ``SmallConvNet(3, (6, 12), 4, 12)`` on
16-sample batches — against the replaced expressions in the same
process, with thresholds far enough under the measured ratios that a
shared host cannot flake them, and bounds what one conv backward may
allocate so the speed is not bought with a scratch stack.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np

from repro.models.autodiff import Tensor, _col2im_cnhw, avg_pool2d, conv2d_cnhw
from tests.models.kernel_oracles import col2im_replaced, pool_forward_replaced

#: conv1's output, ``(c1, n, h, w)``: what ``avg_pool2d(h, 2)`` reads.
ACTIVATIONS = (6, 16, 12, 12)
#: conv2's column gradient ``(in_c, k, k, n, out_h, out_w)`` and the
#: padded input it is summed back onto.
DCOLS, PADDED, STRIDE = (6, 3, 3, 16, 6, 6), (6, 16, 8, 8), 1


def _speedup(old, new, rounds: int = 7, reps: int = 40) -> float:
    """min-of-``rounds`` time of ``old`` over that of ``new``, the two
    timed alternately so a slow moment of the host hits both."""
    best = {old: float("inf"), new: float("inf")}
    for _ in range(rounds):
        for fn in (old, new):
            start = time.perf_counter()
            for _ in range(reps):
                fn()
            best[fn] = min(best[fn], time.perf_counter() - start)
    return best[old] / best[new]


def test_pool_forward_is_at_least_twice_the_multi_axis_mean(rng):
    x = rng.normal(size=ACTIVATIONS)
    tensor = Tensor(x)
    np.testing.assert_array_equal(avg_pool2d(tensor, 2).data, pool_forward_replaced(x, 2))
    ratio = _speedup(lambda: pool_forward_replaced(x, 2), lambda: avg_pool2d(tensor, 2))
    assert ratio >= 2.0, ratio  # measured 4.4–6.5 (≈ 150 -> 27 us), our tape node included


def test_col2im_beats_the_strided_in_place_adds(rng):
    dcols = rng.normal(size=DCOLS)
    np.testing.assert_array_equal(
        _col2im_cnhw(dcols, PADDED, STRIDE), col2im_replaced(dcols, PADDED, STRIDE)
    )
    ratio = _speedup(
        lambda: col2im_replaced(dcols, PADDED, STRIDE), lambda: _col2im_cnhw(dcols, PADDED, STRIDE)
    )
    assert ratio >= 1.15, ratio  # measured 1.4–1.85 (≈ 128 -> 82 us)


def test_conv_backward_allocates_no_scratch_stack(rng):
    """One warmed ``conv2d_cnhw`` backward peaks at its column gradient
    plus a few padded-input-sized arrays — not a ``k * k``-slab stack."""
    x = Tensor(rng.normal(size=(6, 16, 6, 6)), requires_grad=True)
    weight = Tensor(rng.normal(size=(12, 6, 3, 3)), requires_grad=True)
    grad = rng.normal(size=(12, 16, 6, 6))
    conv2d_cnhw(x, weight, padding=1).backward(grad)  # warm
    x.zero_grad()
    weight.zero_grad()
    out = conv2d_cnhw(x, weight, padding=1)

    tracemalloc.start()
    try:
        out.backward(grad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dcols_bytes = int(np.prod(DCOLS)) * 8
    padded_bytes = int(np.prod(PADDED)) * 8
    # Measured: dcols + 3.3 padded (the sum, one slab, the tape's copy
    # of ``grad``); a k * k stack would add 9 more.
    assert peak <= dcols_bytes + 4 * padded_bytes, (peak, dcols_bytes, padded_bytes)
