"""Property: the CNN's worker-blocked pass keeps every bit of the per-row calls.

``SmallConvNet.loss_and_grad_workers`` runs pad, im2col, relu, pooling,
the global mean and col2im once on a block of workers and only the GEMMs
per worker, in sub-blocks sized by ``convnet.PASS_BYTES``.  Its contract
is ``W`` per-row ``loss_and_grad`` calls, bit for bit: gradients
``array_equal`` *and* equal ``signbit``, losses and metrics ``==`` — into
NaN-prefilled destinations, with none, and with some withheld (the
``_Elsewhere`` shape of ``tests/utils/test_gradient_rows.py``), at every
sub-block split (the per-pass count is driven through the constant:
one worker per pass, a count that does not divide ``W``, all of them) and
for one-sample batches, which the method routes through the per-row
body.  Two negative controls: the comparison sees a one-ulp flip, and
the *widened* forward GEMM — the whole block as one ``w_mat @ cols`` —
is not the per-worker bits on this BLAS unless ``B * L % 8 == 0``, which
is why the GEMMs run per worker.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")  # optional dep; CI installs it

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.autodiff import Tensor, conv2d_cnhw
from repro.models.nn import convnet
from repro.models.nn.convnet import SmallConvNet
from repro.utils.seeding import new_rng
from tests.models.kernel_oracles import assert_same_bits

#: Which parameters get a caller's destination.
DESTINATIONS = {
    "all": ("conv1.weight", "conv2.weight", "fc.weight", "fc.bias"),
    "some": ("conv2.weight", "fc.bias"),
    "none": (),
}


@st.composite
def blocks(draw):
    workers, local = draw(st.integers(1, 8)), draw(st.integers(1, 17))
    image = 2 * draw(st.integers(2, 8))
    in_c, classes = draw(st.integers(1, 4)), draw(st.integers(2, 11))
    channels = (draw(st.integers(1, 13)), draw(st.integers(1, 13)))
    # None: the module's own constant; else exactly that many workers' im2col.
    per_pass = draw(st.one_of(st.none(), st.integers(1, 8)))
    magnitude = draw(st.floats(-3.0, 3.0))
    return workers, local, image, in_c, channels, classes, per_pass, magnitude


def _case(block, seed):
    workers, local, image, in_c, channels, classes, per_pass, magnitude = block
    model = SmallConvNet(in_c, channels, classes, image)
    params = model.init_params(new_rng(seed))
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(workers, local, in_c, image, image)) * 10.0**magnitude
    ys = rng.integers(0, classes, size=(workers, local))
    pass_bytes = convnet.PASS_BYTES if per_pass is None else per_pass * xs[0].size * 9 * 8
    return model, params, xs, ys, pass_bytes


def _blocked(model, params, xs, ys, pass_bytes, given_names):
    out = {name: np.full((len(xs), *params[name].shape), np.nan) for name in given_names}
    with mock.patch.object(convnet, "PASS_BYTES", pass_bytes):
        losses, grads, metrics = model.loss_and_grad_workers(params, xs, ys, out or None)
    for name in given_names:
        assert grads[name] is out[name]  # computed in the destination: nothing to copy
    return losses, grads, metrics


def _assert_equals_per_row(model, params, xs, ys, blocked) -> None:
    losses, grads, metrics = blocked
    assert len(losses) == len(metrics) == len(xs) and sorted(grads) == sorted(params)
    for worker, (bx, by) in enumerate(zip(xs, ys)):
        want_loss, want_grads, want_metrics = model.loss_and_grad(params, bx, by)
        assert float(losses[worker]) == want_loss
        assert metrics[worker] == want_metrics
        for name, want in want_grads.items():
            assert_same_bits(grads[name][worker], want)


@settings(max_examples=120, deadline=None)
@given(block=blocks(), given_names=st.sampled_from(sorted(DESTINATIONS)), seed=st.integers(0, 2**16))
def test_blocked_pass_equals_the_per_row_calls_bit_for_bit(block, given_names, seed):
    model, params, xs, ys, pass_bytes = _case(block, seed)
    blocked = _blocked(model, params, xs, ys, pass_bytes, DESTINATIONS[given_names])
    _assert_equals_per_row(model, params, xs, ys, blocked)


@pytest.mark.parametrize(
    "workers, per_pass, passes",
    [(8, 3, [3, 3, 2]), (5, 2, [2, 2, 1]), (4, 1, [1] * 4), (3, 8, [3]), (6, 3, [3, 3])],
)
def test_workers_go_through_consecutive_sub_blocks(workers, per_pass, passes):
    """The split the byte bound yields, and that every split is exact."""
    block = (workers, 4, 8, 3, (6, 12), 4, per_pass, 0.0)
    model, params, xs, ys, pass_bytes = _case(block, seed=workers)
    seen = []
    blocked_pass = model._blocked_pass

    def counted(params, xs, ys, out):
        seen.append(len(xs))
        return blocked_pass(params, xs, ys, out)

    with mock.patch.object(model, "_blocked_pass", counted):
        blocked = _blocked(model, params, xs, ys, pass_bytes, DESTINATIONS["all"])
    assert seen == passes
    _assert_equals_per_row(model, params, xs, ys, blocked)


def test_one_sample_batches_take_the_per_row_body():
    """A ``(1, c2)`` head operand is contiguous in both orders, so BLAS
    would see it untransposed per row and transposed in a block."""
    block = (3, 1, 8, 3, (6, 12), 4, None, 0.0)
    model, params, xs, ys, pass_bytes = _case(block, seed=1)
    with mock.patch.object(model, "_blocked_pass", side_effect=AssertionError("blocked")):
        blocked = _blocked(model, params, xs, ys, pass_bytes, DESTINATIONS["all"])
    _assert_equals_per_row(model, params, xs, ys, blocked)


def test_negative_control_a_one_ulp_flip_fails_the_comparison():
    block = (3, 4, 8, 3, (6, 12), 4, None, 0.0)
    model, params, xs, ys, pass_bytes = _case(block, seed=2)
    losses, grads, metrics = _blocked(model, params, xs, ys, pass_bytes, DESTINATIONS["all"])
    _assert_equals_per_row(model, params, xs, ys, (losses, grads, metrics))
    index = (1, 5, 2, 1, 1)
    grads["conv2.weight"][index] = np.nextafter(grads["conv2.weight"][index], np.inf)
    with pytest.raises(AssertionError):
        _assert_equals_per_row(model, params, xs, ys, (losses, grads, metrics))


def test_negative_control_one_widened_gemm_is_not_the_per_worker_bits():
    """Why the GEMMs run per worker: with ``B * L % 8 != 0`` a column's
    bits of ``w_mat @ cols`` depend on how many columns the call has, so
    the whole block through the 4-D op (one GEMM) is not the per-row
    calls' output, and through the worker-axis op it is."""
    rng = np.random.default_rng(0)
    workers, local = 3, 3  # 5x5 maps: B * L = 75 columns per worker
    x = rng.normal(size=(3, workers * local, 5, 5))
    weight = rng.normal(size=(6, 3, 3, 3))
    per_row = np.concatenate(
        [
            conv2d_cnhw(Tensor(np.ascontiguousarray(block)), Tensor(weight), padding=1).data
            for block in np.split(x, workers, axis=1)
        ],
        axis=1,
    )
    blocked = conv2d_cnhw(Tensor(x), Tensor(np.broadcast_to(weight, (workers, *weight.shape))), padding=1)
    assert_same_bits(blocked.data, per_row)
    widened = conv2d_cnhw(Tensor(x), Tensor(weight), padding=1).data
    np.testing.assert_allclose(widened, per_row, rtol=1e-12, atol=1e-12)
    if np.array_equal(widened, per_row):
        pytest.skip("this BLAS's GEMM bits do not depend on the column count at (6, 27) @ (27, 225)")
