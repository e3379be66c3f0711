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

The step's eight per-row calls are one worker-blocked
``loss_and_grad_workers`` call (``tests/property/test_blocked_cnn.py``
pins the bits); the last four tests pin that it is cheaper than the
eight calls — in a process that has freed nothing large, too, where
glibc would hand a pass's memory back every time — and what one of its
passes may allocate: the byte bound ``convnet.PASS_BYTES`` is what
``peak_rss_mb`` can pay (ROADMAP 5(d)), so an edit that moves the
per-pass worker count has to be seen.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from repro.models.autodiff import Tensor, _col2im_cnhw, avg_pool2d, conv2d_cnhw
from repro.models.nn import convnet
from repro.utils.seeding import new_rng
from tests.conftest import peak_bytes, speedup
from tests.models.kernel_oracles import col2im_replaced, pool_forward_replaced

#: conv1's output, ``(c1, n, h, w)``: what ``avg_pool2d(h, 2)`` reads.
ACTIVATIONS = (6, 16, 12, 12)
#: conv2's column gradient ``(in_c, k, k, n, out_h, out_w)`` and the
#: padded input it is summed back onto.
DCOLS, PADDED, STRIDE = (6, 3, 3, 16, 6, 6), (6, 16, 8, 8), 1
#: One ``train-compute`` step: 8 workers x 16 samples of 3 x 12 x 12, and
#: the first conv's im2col per worker, ``in_c * k * k * B * H * W * 8``.
WORKERS, LOCAL, IM2COL_BYTES = 8, 16, 3 * 9 * 16 * 12 * 12 * 8


def test_pool_forward_is_at_least_twice_the_multi_axis_mean(rng):
    x = rng.normal(size=ACTIVATIONS)
    tensor = Tensor(x)
    np.testing.assert_array_equal(avg_pool2d(tensor, 2).data, pool_forward_replaced(x, 2))
    ratio = speedup(lambda: pool_forward_replaced(x, 2), lambda: avg_pool2d(tensor, 2))
    assert ratio >= 2.0, ratio  # measured 4.4–6.5 (≈ 150 -> 27 us), our tape node included


def test_col2im_beats_the_strided_in_place_adds(rng):
    dcols = rng.normal(size=DCOLS)
    np.testing.assert_array_equal(
        _col2im_cnhw(dcols, PADDED, STRIDE), col2im_replaced(dcols, PADDED, STRIDE)
    )
    ratio = speedup(
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
    x.grad = weight.grad = None
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


def _benchmark_step(rng):
    model = convnet.SmallConvNet(3, (6, 12), 4, 12)
    params = model.init_params(new_rng(0))
    xs = rng.normal(size=(WORKERS, LOCAL, 3, 12, 12))
    ys = rng.integers(0, 4, size=(WORKERS, LOCAL))
    return model, params, xs, ys


def test_blocked_pass_beats_eight_per_row_calls(rng):
    model, params, xs, ys = _benchmark_step(rng)
    out = {name: np.zeros((WORKERS, *value.shape)) for name, value in params.items()}

    def per_row():
        for worker in range(WORKERS):
            dest = {name: rows[worker] for name, rows in out.items()}
            model.loss_and_grad(params, xs[worker], ys[worker], dest)

    ratio = speedup(per_row, lambda: model.loss_and_grad_workers(params, xs, ys, out), reps=5)
    assert ratio >= 1.1, ratio  # measured 1.2–1.35 (≈ 6.0 -> 4.6 ms)


#: One ``train-compute`` step's model work in a process that has freed
#: nothing large: page faults per warmed call.
FRESH_PROCESS = """
import resource
import numpy as np
from repro.models.nn.convnet import SmallConvNet
from repro.utils.seeding import new_rng

model = SmallConvNet(3, (6, 12), 4, 12)
params = model.init_params(new_rng(0))
rng = np.random.default_rng(1)
xs, ys = rng.normal(size=(8, 16, 3, 12, 12)), rng.integers(0, 4, size=(8, 16))
out = {name: np.zeros((8, *value.shape)) for name, value in params.items()}
for _ in range(3):
    model.loss_and_grad_workers(params, xs, ys, out)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    model.loss_and_grad_workers(params, xs, ys, out)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins a glibc malloc behaviour")
def test_blocked_pass_keeps_its_heap_in_a_process_that_has_freed_nothing_large():
    """glibc maps every block over a threshold afresh and trims the freed
    heap over twice that; both follow the largest mmapped block the process
    has freed.  A trainer that keeps its dataset has freed nothing of a
    pass's size, and without the call's untouched allocate-and-free every
    pass faults its ≈ 5 MB in again: ≈ 3 100 faults a call, 1.7x the time
    of the per-row calls it replaces."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-c", FRESH_PROCESS], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 100, done.stdout  # measured 0.2


def test_byte_bound_yields_three_workers_per_pass_at_the_benchmark_shape(rng):
    """1 / 2 / 3 / 4 / 8 workers per pass measured 129 / 168 / 181 / 198 /
    211 steps/s at +1 / +4 / +8 / +12 / +26 % ``peak_rss_mb`` (bound 10 %)
    in the benchmark worker: a shape-rule or constant edit that leaves 3
    has to be re-measured there (ROADMAP 5(d))."""
    assert convnet.PASS_BYTES // IM2COL_BYTES == 3
    model, params, xs, ys = _benchmark_step(rng)
    passes, blocked_pass = [], model._blocked_pass

    def counted(params, xs, ys, out):
        passes.append(len(xs))
        return blocked_pass(params, xs, ys, out)

    with mock.patch.object(model, "_blocked_pass", counted):
        model.loss_and_grad_workers(params, xs, ys)
    assert passes == [3, 3, 2]


def test_one_pass_allocates_within_the_byte_bound(rng):
    """The largest block alive when a pass's forward ends is its first
    im2col, within ``PASS_BYTES``; and the whole call peaks at one
    pass's workers x the per-row call's peak, plus the gradients it
    returns — sub-blocks do not pile up, and the untouched block the call
    frees first is smaller than a pass."""
    model, params, xs, ys = _benchmark_step(rng)
    per_pass = convnet.PASS_BYTES // IM2COL_BYTES
    snapshots, cross_entropy = [], convnet.softmax_cross_entropy_workers

    def at_end_of_forward(*args):
        snapshots.append(tracemalloc.take_snapshot())
        return cross_entropy(*args)

    with mock.patch.object(convnet, "softmax_cross_entropy_workers", at_end_of_forward):
        tracemalloc.start()
        try:
            model.loss_and_grad_workers(params, xs, ys)
        finally:
            tracemalloc.stop()
    largest = max(trace.size for snapshot in snapshots for trace in snapshot.traces)
    assert per_pass * IM2COL_BYTES <= largest <= convnet.PASS_BYTES, largest

    row_peak = peak_bytes(lambda: model.loss_and_grad(params, xs[0], ys[0]))
    peak = peak_bytes(lambda: model.loss_and_grad_workers(params, xs, ys))
    gradients = WORKERS * sum(value.size for value in params.values()) * 8
    # Measured 3.007 per-row peaks (5.34 MB); 4 workers per pass would be 7.1 MB.
    assert peak <= per_pass * row_peak + gradients, (peak, row_peak)
