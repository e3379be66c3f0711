"""Oracles for the strided passes of ``repro.models.autodiff``.

``avg_pool2d``'s forward and backward and ``conv2d_cnhw``'s col2im were
rewritten for speed on one condition: *the same IEEE additions in the
same order*.  The formulations they replaced live on here, verbatim, as
the oracles the rewritten kernels are compared against bit for bit
(``array_equal`` and equal ``signbit``) — by
``tests/models/test_autodiff.py``, the hypothesis layer in
``tests/property/test_conv_kernel_order.py`` and the cost gate in
``tests/perf/test_conv_kernel_cost.py``.  A kernel in ``autodiff.py`` may
be rewritten again only against these.
"""

from __future__ import annotations

import numpy as np

from repro.models.autodiff import Tensor, _im2col_cnhw, _pad_spatial, avg_pool2d, conv2d_cnhw


def reduce_runs_in_stated_order(kernel: int, out_w: int) -> bool:
    """Whether numpy's multi-axis reduce sums a window in ``avg_pool2d``'s
    stated order.  With ``out_w == 1`` the ``(k, 1, k)`` window axes
    coalesce into one run of ``k * k`` and from ``k == 8`` the inner sum is
    unrolled pairwise, so there the replaced expression's bits depended
    on the shape; :func:`pool_forward_stated` covers every shape."""
    return out_w >= 2 and kernel < 8


def pool_forward_replaced(x: np.ndarray, kernel: int) -> np.ndarray:
    """``avg_pool2d``'s forward as it was: one multi-axis ``mean``."""
    n, c, h, w = x.shape
    out_h, out_w = h // kernel, w // kernel
    reshaped = x.reshape(n, c, out_h, kernel, out_w, kernel)
    return reshaped.mean(axis=(3, 5))


def pool_backward_replaced(grad: np.ndarray, kernel: int) -> np.ndarray:
    """``avg_pool2d``'s backward as it was: one broadcast + reshape."""
    n, c, out_h, out_w = grad.shape
    g = np.asarray(grad) / (kernel * kernel)
    return np.broadcast_to(
        g[:, :, :, None, :, None], (n, c, out_h, kernel, out_w, kernel)
    ).reshape(n, c, out_h * kernel, out_w * kernel)


def col2im_replaced(dcols: np.ndarray, padded_shape, stride: int) -> np.ndarray:
    """``conv2d_cnhw``'s col2im as it was: ``k * k`` strided in-place adds."""
    _, kernel, _, _, out_h, out_w = dcols.shape
    dpadded = np.zeros(padded_shape)
    for i in range(kernel):
        for j in range(kernel):
            dpadded[
                :,
                :,
                i : i + out_h * stride : stride,
                j : j + out_w * stride : stride,
            ] += dcols[:, i, j]
    return dpadded


def pool_forward_stated(x: np.ndarray, kernel: int) -> np.ndarray:
    """The stated order, one scalar addition at a time: from ``+0.0``,
    each window row left to right, then the rows top to bottom."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // kernel, w // kernel))
    for a, b, p, q in np.ndindex(*out.shape):
        total = np.float64(0.0)
        for i in range(kernel):
            row = x[a, b, p * kernel + i, q * kernel]
            for j in range(1, kernel):
                row = row + x[a, b, p * kernel + i, q * kernel + j]
            total = total + row
        out[a, b, p, q] = total / (kernel * kernel)
    return out


def pool_forward_sequential(x: np.ndarray, kernel: int) -> np.ndarray:
    """The negative control: the same terms, one running sum over the
    whole window (``((x00 + x01) + x10) + x11``) — a different order."""
    total = np.zeros_like(x[:, :, ::kernel, ::kernel])
    for i in range(kernel):
        for j in range(kernel):
            total = total + x[:, :, i::kernel, j::kernel]
    return total / (kernel * kernel)


def conv_cnhw_replaced(x, weight, stride, padding, grad):
    """``conv2d_cnhw`` forward + backward with the replaced col2im:
    ``(out, dx, dw)`` for channel-major ``x`` and upstream ``grad``."""
    out_c, in_c, kernel, _ = weight.shape
    n = x.shape[1]
    padded = _pad_spatial(x, padding)
    w_mat = weight.reshape(out_c, -1)
    cols, out_h, out_w = _im2col_cnhw(padded, kernel, stride)
    out = (w_mat @ cols).reshape(out_c, n, out_h, out_w)
    g = np.ascontiguousarray(grad).reshape(out_c, -1)
    dw = (g @ cols.T).reshape(weight.shape)
    dcols = (w_mat.T @ g).reshape(in_c, kernel, kernel, n, out_h, out_w)
    dpadded = col2im_replaced(dcols, padded.shape, stride)
    if padding:
        dpadded = dpadded[:, :, padding:-padding, padding:-padding]
    return out, dpadded, dw


def mixed_magnitudes(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal draws scaled by 1e-8 / 1 / 1e8 at random, with a few exact
    ``-0.0`` entries: data on which a reordered sum shows in the bits."""
    x = rng.normal(size=shape) * rng.choice([1e-8, 1.0, 1e8], size=shape)
    x[rng.random(size=shape) < 0.05] = -0.0
    return x


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    """Equal values *and* equal signs of zero (``array_equal`` alone
    takes ``-0.0 == +0.0``)."""
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def _leaf(value: np.ndarray, destination: bool) -> tuple[Tensor, np.ndarray | None]:
    """A trainable leaf, with a NaN-prefilled gradient destination or without."""
    dest = np.full(value.shape, np.nan) if destination else None
    return Tensor(value, requires_grad=True, grad_out=dest), dest


def check_pool_bits(x_val: np.ndarray, grad: np.ndarray, kernel: int, destination: bool) -> None:
    """``avg_pool2d`` forward + backward against the stated order and,
    where numpy's reduce runs in it, the replaced expressions."""
    x, dest = _leaf(x_val, destination)
    out = avg_pool2d(x, kernel)
    out.backward(grad)
    assert_same_bits(out.data, pool_forward_stated(x_val, kernel))
    if reduce_runs_in_stated_order(kernel, out.shape[3]):
        assert_same_bits(out.data, pool_forward_replaced(x_val, kernel))
    assert_same_bits(x.grad, pool_backward_replaced(grad, kernel))
    assert dest is None or x.grad is dest


def check_conv_cnhw_bits(x_val, w_val, stride: int, padding: int, grad, destinations: bool) -> None:
    """``conv2d_cnhw`` output, input gradient and weight gradient against
    the op with the replaced col2im."""
    want_out, want_dx, want_dw = conv_cnhw_replaced(x_val, w_val, stride, padding, grad)
    x, x_dest = _leaf(x_val, destinations)
    weight, w_dest = _leaf(w_val, destinations)
    out = conv2d_cnhw(x, weight, stride=stride, padding=padding)
    out.backward(grad)
    assert_same_bits(out.data, want_out)
    assert_same_bits(x.grad, want_dx)
    assert_same_bits(weight.grad, want_dw)
    assert not destinations or (x.grad is x_dest and weight.grad is w_dest)
