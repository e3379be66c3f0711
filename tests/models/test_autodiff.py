"""Autodiff tape: every op checked against central finite differences."""

from unittest import mock

import numpy as np
import pytest

from repro.models.autodiff import (
    Tensor,
    _node,
    avg_pool2d,
    conv2d_cnhw,
    embedding,
    exp,
    layer_norm,
    log,
    matmul,
    power,
    relu,
    softmax,
    softmax_cross_entropy,
    tensor_mean,
    tensor_sum,
)
from tests.models.kernel_oracles import (
    assert_same_bits,
    check_conv_cnhw_bits,
    check_pool_bits,
    mixed_magnitudes,
    pool_forward_replaced,
    pool_forward_sequential,
    pool_forward_stated,
)


def tanh(a: Tensor) -> Tensor:
    """tanh on the tape: the smooth non-linearity of the conv gradient checks."""
    out_data = np.tanh(a.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * (1.0 - out_data**2), owned=True)

    return _node(out_data, (a,), backward)


def numerical_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = fn(x)
        flat[i] = orig - eps
        down = fn(x)
        flat[i] = orig
        grad_flat[i] = (up - down) / (2 * eps)
    return grad


def check_gradient(build_loss, x: np.ndarray, atol=1e-5, rtol=1e-4, eps=1e-6):
    """Compare tape gradient against finite differences: once allocated
    by the tape, once computed into a NaN-filled gradient destination."""

    def scalar_fn(arr):
        return float(build_loss(Tensor(arr)).data)

    expected = numerical_grad(scalar_fn, x.copy(), eps)
    for dest in (None, np.full(x.shape, np.nan)):
        t = Tensor(x.copy(), requires_grad=True, grad_out=dest)
        build_loss(t).backward()
        assert dest is None or t.grad is dest
        np.testing.assert_allclose(t.grad, expected, atol=atol, rtol=rtol)


class TestElementwise:
    def test_add_broadcast(self, rng):
        x = rng.normal(size=(3, 4))
        bias = Tensor(rng.normal(size=4))
        check_gradient(lambda t: (t + bias).sum(), x)

    def test_mul_broadcast_gradients_both_sides(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, np.broadcast_to(b.data, (2, 3)))
        np.testing.assert_allclose(b.grad, a.data.sum(axis=0))

    def test_power(self, rng):
        x = np.abs(rng.normal(size=6)) + 0.5
        check_gradient(lambda t: power(t, 3.0).sum(), x)

    def test_exp_log(self, rng):
        x = np.abs(rng.normal(size=5)) + 0.5
        check_gradient(lambda t: exp(t).sum(), x)
        check_gradient(lambda t: log(t).sum(), x)

    def test_relu_grad_zero_below(self):
        t = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        relu(t).sum().backward()
        np.testing.assert_array_equal(t.grad, [0.0, 1.0])

    def test_tanh(self, rng):
        check_gradient(lambda t: tanh(t).sum(), rng.normal(size=7))

    def test_sub_and_div(self, rng):
        x = rng.normal(size=4)
        check_gradient(lambda t: (t - 2.0).sum(), x)
        check_gradient(lambda t: (t / 2.0).sum(), x)

    # A constant on the left dispatches to the reflected operator.
    @pytest.mark.parametrize(
        "build",
        [
            lambda t: (1.5 + t) * t,
            lambda t: (1.5 - t) * t,
            lambda t: 1.5 * t * t,
            lambda t: -t * t,
            lambda t: t.relu() * t,
        ],
        ids=["radd", "rsub", "rmul", "neg", "relu-method"],
    )
    def test_reflected_and_method_forms(self, rng, build):
        check_gradient(lambda t: build(t).sum(), rng.normal(size=(3, 2)))

    def test_a_constant_operand_takes_no_gradient(self, rng):
        t = Tensor(rng.normal(size=5), requires_grad=True)
        frozen = Tensor(t.data.copy())
        (t * frozen).sum().backward()
        # Only the live operand's path contributes: d/dt (t * c) = c.
        np.testing.assert_array_equal(t.grad, frozen.data)
        assert frozen.grad is None
        assert (t.ndim, t.size) == (1, 5)


class TestMatmul:
    def test_2d(self, rng):
        w = Tensor(rng.normal(size=(4, 3)))
        x = rng.normal(size=(5, 4))
        check_gradient(lambda t: matmul(t, w).sum(), x)

    def test_2d_weight_gradient(self, rng):
        x = Tensor(rng.normal(size=(5, 4)))
        w = rng.normal(size=(4, 3))
        check_gradient(lambda t: matmul(x, t).sum(), w)

    def test_batched_lhs(self, rng):
        w = Tensor(rng.normal(size=(4, 3)))
        x = rng.normal(size=(2, 5, 4))
        check_gradient(lambda t: matmul(t, w).sum(), x)

    def test_batched_weight_broadcast(self, rng):
        x = Tensor(rng.normal(size=(2, 5, 4)))
        w = rng.normal(size=(4, 3))
        check_gradient(lambda t: matmul(x, t).sum(), w)

    def test_batched_both(self, rng):
        b = Tensor(rng.normal(size=(2, 4, 3)))
        a = rng.normal(size=(2, 5, 4))
        check_gradient(lambda t: matmul(t, b).sum(), a)


class TestReductionsAndShape:
    def test_sum_axis(self, rng):
        x = rng.normal(size=(3, 4))
        check_gradient(lambda t: (tensor_sum(t, axis=0) * 2.0).sum(), x)

    def test_sum_keepdims(self, rng):
        x = rng.normal(size=(3, 4))
        check_gradient(lambda t: (t * tensor_sum(t, axis=1, keepdims=True)).sum(), x)

    def test_mean_tuple_axis(self, rng):
        x = rng.normal(size=(2, 3, 4))
        check_gradient(lambda t: tensor_mean(t, axis=(1, 2)).sum(), x)

    def test_reshape_transpose(self, rng):
        x = rng.normal(size=(3, 4))
        check_gradient(lambda t: (t.reshape(12) * np.arange(12.0)).sum(), x)
        check_gradient(lambda t: (t.transpose() @ Tensor(np.ones(3))).sum(), x)

    def test_transpose_axes(self, rng):
        x = rng.normal(size=(2, 3, 4))
        check_gradient(lambda t: (t.transpose((0, 2, 1)) * 1.5).sum(), x)


class TestFusedOps:
    def test_softmax_rows_sum_to_one(self, rng):
        out = softmax(Tensor(rng.normal(size=(4, 6))))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(4))

    def test_softmax_gradient(self, rng):
        x = rng.normal(size=(3, 5))
        coeff = rng.normal(size=(3, 5))
        check_gradient(lambda t: (softmax(t) * Tensor(coeff)).sum(), x)

    def test_cross_entropy_matches_manual(self, rng):
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 1])
        loss, losses = softmax_cross_entropy(Tensor(logits), labels)
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -logp[np.arange(4), labels].mean()
        assert float(loss.data) == pytest.approx(expected)
        assert losses.shape == (1,) and losses[0] == float(loss.data)

    def test_cross_entropy_gradient(self, rng):
        labels = np.array([1, 0, 2])
        x = rng.normal(size=(3, 4))
        check_gradient(lambda t: softmax_cross_entropy(t, labels)[0], x)

    def test_cross_entropy_sequence_with_padding(self, rng):
        logits = rng.normal(size=(2, 3, 4))
        labels = np.array([[1, 2, -1], [0, -1, -1]])  # -1 = pad
        x = logits.copy()
        check_gradient(lambda t: softmax_cross_entropy(t, labels)[0], x)
        # Padded positions must receive zero gradient.
        t = Tensor(logits, requires_grad=True)
        softmax_cross_entropy(t, labels)[0].backward()
        np.testing.assert_array_equal(t.grad[0, 2], np.zeros(4))

    @pytest.mark.parametrize(
        "labels, problem",
        [
            ([0, 1, 4, 0, 1, 2, 0, 1], r"label 4 is out of range for 4 classes"),
            ([0.0, 1.0, 2.0, 0.0] * 2, r"labels must be integer class ids, got dtype float64"),
            ([0, 1, 2, 0, 1, 2, 0], r"7 labels for 8 rows"),
        ],
        ids=["label-too-large", "float-labels", "label-count"],
    )
    @pytest.mark.parametrize(
        "op",
        [softmax_cross_entropy, lambda t, y: softmax_cross_entropy(t, y, 2)],
        ids=["one-worker", "two-workers"],
    )
    def test_hostile_labels_are_a_one_line_value_error(self, rng, op, labels, problem):
        """Not an IndexError from deep inside numpy's fancy indexing."""
        logits = Tensor(rng.normal(size=(8, 4)), requires_grad=True)
        message = rf"softmax_cross_entropy\w*: {problem} \(logits \(8, 4\)\)"
        with pytest.raises(ValueError, match=message) as caught:
            op(logits, np.array(labels))
        assert "\n" not in str(caught.value)

    def test_sequence_labels_are_checked_against_all_rows(self, rng):
        logits = Tensor(rng.normal(size=(2, 3, 4)))
        with pytest.raises(ValueError, match=r"5 labels for 6 rows \(logits \(2, 3, 4\)\)"):
            softmax_cross_entropy(logits, np.array([1, 2, -1, 0, -1]))
        with pytest.raises(ValueError, match=r"label 7 is out of range for 4 classes"):
            softmax_cross_entropy(logits, np.array([[1, 2, -1], [0, 7, -1]]))

    # layer_norm and embedding take a leading worker axis: (W, ..., dim)
    # activations with (W, dim) gains, (W, rows, dim) tables with (W, ...) ids.
    @pytest.mark.parametrize("workers", [1, 3])
    def test_layer_norm_gradient(self, rng, workers):
        gamma = Tensor(rng.normal(size=(workers, 5)) + 1.0)
        beta = Tensor(rng.normal(size=(workers, 5)))
        x = rng.normal(size=(workers, 2, 3, 5))
        check_gradient(lambda t: (layer_norm(t, gamma, beta) * 0.7).sum(), x, atol=1e-4)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_layer_norm_param_gradients(self, rng, workers):
        x = Tensor(rng.normal(size=(workers, 2, 3, 5)))
        gamma_val = rng.normal(size=(workers, 5)) + 1.0
        beta_val = rng.normal(size=(workers, 5))
        check_gradient(lambda t: layer_norm(x, t, Tensor(beta_val)).sum(), gamma_val)
        check_gradient(lambda t: layer_norm(x, Tensor(gamma_val), t).sum(), beta_val)

    def test_layer_norm_output_standardised(self, rng):
        out = layer_norm(
            Tensor(rng.normal(size=(2, 4, 8)) * 5 + 3),
            Tensor(np.ones((2, 8))),
            Tensor(np.zeros((2, 8))),
        )
        np.testing.assert_allclose(out.data.mean(axis=-1), np.zeros((2, 4)), atol=1e-9)
        np.testing.assert_allclose(out.data.std(axis=-1), np.ones((2, 4)), atol=1e-4)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_embedding_gradient_scatter(self, rng, workers):
        table_val = rng.normal(size=(workers, 6, 3))
        ids = rng.integers(0, 6, size=(workers, 2, 2))
        ids[0, 1, 1] = ids[0, 0, 0]  # a row looked up twice
        coeff = Tensor(rng.normal(size=(workers, 2, 2, 3)))
        check_gradient(lambda t: (embedding(t, ids) * coeff).sum(), table_val)

    def test_embedding_looks_up_each_workers_own_table(self, rng):
        table = rng.normal(size=(3, 6, 4))
        ids = rng.integers(0, 6, size=(3, 5))
        out = embedding(Tensor(table), ids).data
        for worker in range(3):
            np.testing.assert_array_equal(out[worker], table[worker][ids[worker]])


def _worker_axis(weight: Tensor, workers: int) -> Tensor:
    """``weight`` under ``leaf_tensors``' leading stride-0 worker axis."""
    return Tensor(np.broadcast_to(weight.data, (workers, *weight.shape)))


#: ``(n, c, h, w, oc, k, stride, pad)``: strides 2 and 3, kernels 1 / 2 / 5,
#: non-square maps, a stride that leaves a remainder.
CONV_SHAPES = [
    (2, 3, 6, 6, 4, 3, 1, 1),
    (4, 3, 12, 12, 6, 3, 1, 1),
    (2, 5, 9, 11, 4, 3, 2, 0),
    (3, 2, 8, 8, 7, 5, 1, 2),
    (2, 3, 10, 10, 4, 3, 3, 1),
    (1, 1, 4, 4, 1, 1, 1, 0),
    (2, 3, 7, 9, 5, 2, 2, 1),
]


def _channel_major(a: np.ndarray) -> np.ndarray:
    """``(n, c, h, w)`` as a contiguous ``(c, n, h, w)`` array, and back."""
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3))


def _conv_case(rng, n, c, h, w, oc, k, stride, pad):
    """Channel-major input ``(c, n, h, w)``, fan-in-scaled weight and a
    channel-major output cotangent for one shape."""
    out_h = (h + 2 * pad - k) // stride + 1
    out_w = (w + 2 * pad - k) // stride + 1
    return (
        _channel_major(rng.normal(size=(n, c, h, w))),
        rng.normal(size=(oc, c, k, k)) / np.sqrt(c * k * k),
        Tensor(_channel_major(rng.normal(size=(n, oc, out_h, out_w)))),
    )


class TestConvPool:
    @pytest.mark.parametrize("n,c,h,w,oc,k,stride,pad", CONV_SHAPES)
    def test_conv2d_matches_naive(self, rng, n, c, h, w, oc, k, stride, pad):
        x, weight, cotangent = _conv_case(rng, n, c, h, w, oc, k, stride, pad)
        out = conv2d_cnhw(Tensor(x), Tensor(weight), stride=stride, padding=pad)
        # Naive direct convolution reference, over the NCHW batch.
        padded = np.pad(_channel_major(x), ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        expected = np.zeros((n, oc, *cotangent.shape[2:]))
        for b in range(n):
            for o in range(oc):
                for i in range(expected.shape[2]):
                    rows = slice(i * stride, i * stride + k)
                    for j in range(expected.shape[3]):
                        window = padded[b, :, rows, j * stride : j * stride + k]
                        expected[b, o, i, j] = np.sum(window * weight[o])
        np.testing.assert_allclose(_channel_major(out.data), expected, atol=1e-10)

    # tanh makes the loss non-linear in both operands (central differences
    # are exact on a bilinear one, at any eps), the random cotangent makes
    # the incoming gradient a general one.
    @pytest.mark.parametrize("n,c,h,w,oc,k,stride,pad", CONV_SHAPES)
    def test_conv2d_input_gradient(self, rng, n, c, h, w, oc, k, stride, pad):
        x, weight, cotangent = _conv_case(rng, n, c, h, w, oc, k, stride, pad)
        weight = Tensor(weight)

        def loss(t):
            return (tanh(conv2d_cnhw(t, weight, stride, pad)) * cotangent).sum()

        check_gradient(loss, x, atol=1e-4)

    @pytest.mark.parametrize("n,c,h,w,oc,k,stride,pad", CONV_SHAPES)
    def test_conv2d_weight_gradient(self, rng, n, c, h, w, oc, k, stride, pad):
        x, weight, cotangent = _conv_case(rng, n, c, h, w, oc, k, stride, pad)
        x = Tensor(x)

        def loss(t):
            return (tanh(conv2d_cnhw(x, t, stride, pad)) * cotangent).sum()

        check_gradient(loss, weight, atol=1e-4)

    @pytest.mark.parametrize("operand", ["input", "weight"])
    def test_negative_control_a_coarse_eps_fails_the_gradient_check(self, rng, operand):
        """The numerical Jacobian is only an oracle at a fine ``eps``: at
        0.5 the same check must fail, or it would pass anything."""
        x, weight, cotangent = _conv_case(rng, *CONV_SHAPES[-1])
        value = x if operand == "input" else weight

        def loss(t):
            operands = (t, Tensor(weight)) if operand == "input" else (Tensor(x), t)
            return (tanh(conv2d_cnhw(*operands, stride=2, padding=1)) * cotangent).sum()

        check_gradient(loss, value, atol=1e-4)
        with pytest.raises(AssertionError):
            check_gradient(loss, value, atol=1e-4, eps=0.5)

    def test_conv2d_stride(self, rng):
        out = conv2d_cnhw(
            Tensor(rng.normal(size=(1, 1, 8, 8))),
            Tensor(rng.normal(size=(1, 1, 3, 3))),
            stride=2,
            padding=1,
        )
        assert out.data.shape == (1, 1, 4, 4)

    def test_avg_pool(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        out = avg_pool2d(Tensor(x), 2)
        assert out.data.shape == (1, 2, 2, 2)
        assert out.data[0, 0, 0, 0] == pytest.approx(x[0, 0, :2, :2].mean())

    def test_avg_pool_gradient(self, rng):
        x = rng.normal(size=(1, 1, 4, 4))
        check_gradient(lambda t: (avg_pool2d(t, 2) * 3.0).sum(), x)

    def test_avg_pool_kernel_one_second_consumer(self, rng):
        """kernel == 1 pooling must not adopt a read-only grad view."""
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        out = avg_pool2d(x, 1) + x * 2.0  # x has two consumers
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.full(x.shape, 3.0))

    def test_avg_pool_indivisible_rejected(self, rng):
        with pytest.raises(ValueError):
            avg_pool2d(Tensor(rng.normal(size=(1, 1, 5, 5))), 2)

    @pytest.mark.parametrize("kernel", [1, 2, 3])
    def test_avg_pool_output_never_aliases_its_input(self, rng, kernel):
        x = Tensor(rng.normal(size=(2, 2, 6, 6)), requires_grad=True)
        out = avg_pool2d(x, kernel)
        assert not np.shares_memory(out.data, x.data)
        upstream = np.ones(out.shape)
        out.backward(upstream)
        assert x.grad.flags.writeable and not np.shares_memory(x.grad, upstream)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda x, w: avg_pool2d(x, 0), r"avg_pool2d: kernel must be >= 1, got 0 \(input \(2, 3, 6, 6\)"),
            (lambda x, w: avg_pool2d(x, -2), r"avg_pool2d: kernel must be >= 1, got -2"),
            (lambda x, w: avg_pool2d(Tensor(x.data[0]), 2), r"avg_pool2d: input must be 4-D, got 3-D"),
            (
                lambda x, w: avg_pool2d(Tensor(x.data[:, :, :0, :0]), 2),
                r"avg_pool2d: kernel 2 does not fit the 0x0 padded input \(input \(2, 3, 0, 0\)\)",
            ),
            (
                lambda x, w: conv2d_cnhw(x.transpose((1, 0, 2, 3)), w, stride=0),
                r"conv2d_cnhw: stride must be >= 1, got 0 \(input \(3, 2, 6, 6\), weight \(4, 3, 3, 3\)\)",
            ),
            (
                lambda x, w: conv2d_cnhw(x.transpose((1, 0, 2, 3)), w, padding=-1),
                r"conv2d_cnhw: padding must be >= 0, got -1",
            ),
            (
                lambda x, w: conv2d_cnhw(Tensor(x.data.transpose(1, 0, 2, 3)[:, :, :, :2]), w),
                r"conv2d_cnhw: kernel 3 does not fit the 6x2 padded input",
            ),
            (
                lambda x, w: conv2d_cnhw(Tensor(x.data.transpose(1, 0, 2, 3)[:, :, :2, :]), w),
                r"conv2d_cnhw: kernel 3 does not fit the 2x6 padded input \(input \(3, 2, 2, 6\), weight",
            ),
            (
                lambda x, w: conv2d_cnhw(Tensor(x.data.transpose(1, 0, 2, 3)[0]), w),
                r"conv2d_cnhw: input must be 4-D, got 3-D",
            ),
            (
                lambda x, w: conv2d_cnhw(x.transpose((1, 0, 2, 3)), _worker_axis(w, 3)),
                r"conv2d_cnhw: 3 workers do not divide the sample axis "
                r"\(input \(3, 2, 6, 6\), weight \(3, 4, 3, 3, 3\)\)",
            ),
            (
                lambda x, w: conv2d_cnhw(x.transpose((1, 0, 2, 3)), _worker_axis(w, 0)),
                r"conv2d_cnhw: 0 workers do not divide the sample axis",
            ),
            (
                lambda x, w: conv2d_cnhw(
                    x.transpose((1, 0, 2, 3)), Tensor(np.tile(w.data, (2, 1, 1, 1, 1)))
                ),
                r"conv2d_cnhw: the weight's worker axis must be a stride-0 view of one weight "
                r"\(input \(3, 2, 6, 6\), weight \(2, 4, 3, 3, 3\)\)",
            ),
            (
                lambda x, w: conv2d_cnhw(x.transpose((1, 0, 2, 3)), _worker_axis(Tensor(w.data[..., :2]), 2)),
                r"conv2d_cnhw: only square kernels supported "
                r"\(input \(3, 2, 6, 6\), weight \(2, 4, 3, 3, 2\)\)",
            ),
            (
                lambda x, w: conv2d_cnhw(x.transpose((1, 0, 2, 3)), _worker_axis(Tensor(w.data[:, :2]), 2)),
                r"conv2d_cnhw: channel-major input has 3 channels, weight expects 2 "
                r"\(input \(3, 2, 6, 6\), weight \(2, 4, 2, 3, 3\)\)",
            ),
            (
                lambda x, w: conv2d_cnhw(x.transpose((1, 0, 2, 3)), _worker_axis(w, 2), stride=0),
                r"conv2d_cnhw: stride must be >= 1, got 0 \(input \(3, 2, 6, 6\), weight \(2, 4, 3, 3, 3\)\)",
            ),
            (
                lambda x, w: conv2d_cnhw(x.transpose((1, 0, 2, 3)), Tensor(w.data[0])),
                r"conv2d_cnhw: weight must be 4-D, or 5-D with a leading worker axis, got 3-D",
            ),
        ],
        ids=[
            "pool-kernel-0",
            "pool-kernel-negative",
            "pool-3d",
            "pool-empty",
            "cnhw-stride-0",
            "cnhw-padding-negative",
            "cnhw-kernel-too-large",
            "cnhw-kernel-too-tall",
            "cnhw-3d",
            "cnhw-workers-do-not-divide",
            "cnhw-zero-workers",
            "cnhw-worker-axis-not-stride-0",
            "cnhw-worker-weight-not-square",
            "cnhw-worker-weight-channels",
            "cnhw-worker-weight-stride-0",
            "cnhw-weight-3d",
        ],
    )
    def test_hostile_window_is_a_one_line_value_error(self, rng, call, message):
        """Not a ZeroDivisionError, a reshape / broadcast error from
        inside numpy, or a silent (..., 0, 0) output with a NaN mean."""
        x = Tensor(rng.normal(size=(2, 3, 6, 6)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        with pytest.raises(ValueError, match=message) as caught:
            call(x, w)
        assert "\n" not in str(caught.value)


class TestKernelSummationOrder:
    """The strided passes were rewritten for speed on one condition — the
    same IEEE additions in the same order.  The expressions they replaced
    (``tests/models/kernel_oracles.py``) are the oracles; hypothesis
    drives the shapes in ``tests/property/test_conv_kernel_order.py``."""

    @pytest.mark.parametrize("destination", [False, True])
    @pytest.mark.parametrize("kernel", [1, 2, 3, 4, 5])
    def test_pool_bits_equal_the_replaced_expressions(self, kernel, destination):
        rng = np.random.default_rng(kernel)
        x_val = mixed_magnitudes(rng, (6, 4, 3 * kernel, 2 * kernel))
        check_pool_bits(x_val, mixed_magnitudes(rng, (6, 4, 3, 2)), kernel, destination)

    def test_negative_control_a_sequential_window_sum_differs(self):
        """The property can see an order change: the same nine terms
        summed as one running sum are not the same bits."""
        x_val = mixed_magnitudes(np.random.default_rng(3), (6, 4, 9, 6))
        ours = avg_pool2d(Tensor(x_val), 3).data
        sequential = pool_forward_sequential(x_val, 3)
        np.testing.assert_allclose(sequential, ours, rtol=1e-6, atol=1e-2)
        assert not np.array_equal(sequential, ours)

    def test_pool_order_does_not_depend_on_shape_or_layout(self):
        """Where numpy's reduce coalesces the window (one output column)
        or meets a transposed view, the replaced expression summed in
        another order; the kernel keeps its stated one."""
        rng = np.random.default_rng(5)
        column = mixed_magnitudes(rng, (4, 3, 9, 3))
        assert_same_bits(avg_pool2d(Tensor(column), 3).data, pool_forward_stated(column, 3))
        assert not np.array_equal(
            pool_forward_replaced(column, 3), pool_forward_stated(column, 3)
        )
        view = mixed_magnitudes(rng, (4, 3, 6, 9)).transpose(0, 1, 3, 2)
        assert_same_bits(avg_pool2d(Tensor(view), 3).data, pool_forward_stated(view, 3))

    @pytest.mark.parametrize(
        "c, n, h, w, oc, k, stride, pad",
        [
            (6, 16, 6, 6, 12, 3, 1, 1),  # the benchmark's second conv
            (3, 4, 9, 11, 4, 3, 2, 0),
            (2, 3, 8, 8, 5, 5, 1, 2),
            (3, 2, 10, 10, 4, 3, 3, 1),  # (H - k) % stride != 0
            (2, 3, 7, 9, 4, 1, 2, 0),
        ],
    )
    def test_conv_cnhw_bits_equal_the_replaced_col2im(self, c, n, h, w, oc, k, stride, pad):
        rng = np.random.default_rng(h * w)
        x_val = mixed_magnitudes(rng, (c, n, h, w))
        w_val = mixed_magnitudes(rng, (oc, c, k, k))
        out_h, out_w = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
        grad = mixed_magnitudes(rng, (oc, n, out_h, out_w))
        for destinations in (False, True):
            check_conv_cnhw_bits(x_val, w_val, stride, pad, grad, destinations)


class TestVectorizedConvKernels:
    """The BLAS conv kernel: what it skips and what it rejects."""

    def test_leaf_input_gradient_skipped(self, rng):
        """A non-differentiable conv input gets no materialised grad."""
        x = Tensor(rng.normal(size=(3, 2, 6, 6)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        conv2d_cnhw(x, w, padding=1).sum().backward()
        assert w.grad is not None
        assert x.grad is None

    def test_chained_conv_input_gradient_flows(self, rng):
        """Interior conv inputs (required upstream) still get gradients."""
        x = Tensor(rng.normal(size=(2, 1, 6, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        out = conv2d_cnhw(x, w, padding=1)
        conv2d_cnhw(out.relu(), Tensor(rng.normal(size=(2, 3, 3, 3))), padding=1).sum().backward()
        assert x.grad is not None and x.grad.shape == x.data.shape

    def test_cnhw_rejects_channel_mismatch(self, rng):
        # Channel-major input has 4 channel rows; the weight expects 2.
        x = Tensor(rng.normal(size=(4, 2, 6, 6)))
        w = Tensor(rng.normal(size=(3, 2, 3, 3)))
        with pytest.raises(ValueError):
            conv2d_cnhw(x, w)


class TestWorkerBlockedCrossEntropy:
    """softmax_cross_entropy over W workers equals W one-worker calls."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pad", ["none", "some", "a-whole-worker"])
    def test_matches_one_worker_calls_bit_for_bit(self, rng, pad, dtype):
        workers, local, classes = 4, 8, 5
        logits_val = rng.normal(size=(workers * local, classes)).astype(dtype)
        labels = rng.integers(0, classes, size=workers * local)
        if pad != "none":
            labels[[3, 9, 10, 31]] = -1
        if pad == "a-whole-worker":
            labels[2 * local : 3 * local] = -1

        blocked = Tensor(logits_val, requires_grad=True)
        node, losses = softmax_cross_entropy(blocked, labels, workers)
        node.backward()
        assert losses.dtype == blocked.grad.dtype == dtype

        for worker in range(workers):
            rows = slice(worker * local, (worker + 1) * local)
            single = Tensor(logits_val[rows], requires_grad=True)
            loss, _ = softmax_cross_entropy(single, labels[rows])
            loss.backward()
            assert float(loss.data) == float(losses[worker])
            assert_same_bits(blocked.grad[rows], single.grad)
        if pad == "a-whole-worker":
            assert losses[2] == 0.0 and not blocked.grad[2 * local : 3 * local].any()

    def test_rejects_bad_shapes(self, rng):
        logits = Tensor(rng.normal(size=(8, 3)), requires_grad=True)
        with pytest.raises(ValueError, match="8 rows do not split over 3 workers"):
            softmax_cross_entropy(logits, np.zeros(8, dtype=int), 3)
        with pytest.raises(ValueError, match="4 labels for 8 rows"):
            softmax_cross_entropy(logits, np.zeros(4, dtype=int), 2)


class TestCrossEntropyGradcheck:
    """Tape against central differences for the one cross-entropy, in
    float64, each case with a negative control: a step too coarse for the
    curvature must fail the same comparison (the tinygrad ``gradcheck``
    pattern), so the check can tell a wrong gradient from a right one."""

    CASES = {
        "one-worker": ((6, 4), [1, 0, 3, 2, 2, 1], 1),
        "three-workers": ((6, 4), [1, 0, 3, 2, 2, 1], 3),
        "padded": ((6, 4), [1, -1, 3, 2, -1, -1], 3),
        "an-all-padding-worker": ((6, 4), [1, 0, -1, -1, 2, -1], 3),
        "sequence": ((2, 3, 4), [[1, 2, -1], [0, -1, 3]], 1),
        "sequence-two-workers": ((2, 3, 4), [[1, 2, -1], [-1, -1, -1]], 2),
    }

    @staticmethod
    def _gradcheck(x, labels, workers, eps):
        def loss(t):
            return softmax_cross_entropy(t, labels, workers)[0]

        expected = numerical_grad(lambda arr: float(loss(Tensor(arr)).data), x.copy(), eps)
        t = Tensor(x.copy(), requires_grad=True)
        loss(t).backward()
        np.testing.assert_allclose(t.grad, expected, atol=1e-7, rtol=1e-6)
        return t.grad

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_tape_matches_central_differences(self, rng, case):
        shape, labels, workers = self.CASES[case]
        labels = np.array(labels)
        x = rng.normal(size=shape) * 2.0
        grad = self._gradcheck(x, labels, workers, eps=1e-6)
        # Padding gets no gradient; every other row's sums to zero.
        flat, valid = grad.reshape(-1, shape[-1]), labels.reshape(-1) >= 0
        assert not flat[~valid].any()
        np.testing.assert_allclose(flat[valid].sum(axis=1), 0.0, atol=1e-12)
        with pytest.raises(AssertionError):
            self._gradcheck(x, labels, workers, eps=1.0)


class TestEngine:
    def test_backward_requires_scalar(self, rng):
        t = Tensor(rng.normal(size=4), requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2.0).backward()

    def test_gradient_accumulates_across_uses(self, rng):
        t = Tensor(np.array([2.0]), requires_grad=True)
        loss = (t * t).sum()  # d/dt t^2 = 2t
        loss.backward()
        np.testing.assert_allclose(t.grad, [4.0])

    def test_diamond_graph(self):
        t = Tensor(np.array([3.0]), requires_grad=True)
        a = t * 2.0
        b = t * 5.0
        (a + b).sum().backward()
        np.testing.assert_allclose(t.grad, [7.0])

    def test_no_grad_without_requires(self, rng):
        t = Tensor(rng.normal(size=3))
        out = (t * 2.0).sum()
        out.backward()
        assert t.grad is None

    def test_dead_operands_take_no_gradient(self, rng):
        """A data batch and constants end backward() with no gradient
        parked on them, in either operand position."""
        x = Tensor(rng.normal(size=(5, 4)))
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        v = Tensor(rng.normal(size=3))
        scale = Tensor(0.5)
        loss = tensor_mean((x @ w) * scale) + (scale * (w @ v)).sum() / Tensor(2.0)
        loss.backward()
        assert w.grad is not None
        assert x.grad is None and v.grad is None and scale.grad is None

    @pytest.mark.parametrize(
        "data, dtype",
        [
            (np.ones(3, np.float32), np.float32),
            (np.float32(2.0), np.float32),
            (np.ones(3), np.float64),
            (np.arange(3), np.float64),
            (np.ones(3, np.float16), np.float64),
            (2.0, np.float64),
            ([1, 2], np.float64),
        ],
        ids=["f32", "f32-scalar", "f64", "int", "f16", "py-float", "list"],
    )
    def test_float32_data_stays_float32_and_the_rest_becomes_float64(self, data, dtype):
        t = Tensor(data)
        assert t.data.dtype == dtype
        np.testing.assert_array_equal(t.data, np.asarray(data, dtype=np.float64))

    def test_a_float32_tape_keeps_float32_through_mean_and_accumulation(self, rng):
        """A leaf used twice, a mean's constant and an incoming float64
        gradient: every gradient is accumulated in its tensor's dtype."""
        x = Tensor(rng.normal(size=(5, 4)).astype(np.float32))
        w = Tensor(rng.normal(size=(4, 4)).astype(np.float32), requires_grad=True)
        out = tensor_mean((x @ w) @ w, axis=0)
        assert out.data.dtype == np.float32
        out.backward(np.ones(4))  # a float64 seed gradient
        assert w.grad.dtype == np.float32 and out.grad.dtype == np.float32

    def test_deep_chain_iterative_toposort(self):
        # 2000-deep chain: a recursive topo-sort would blow the stack.
        t = Tensor(np.array([1.0]), requires_grad=True)
        node = t
        for _ in range(2000):
            node = node + Tensor(np.array([0.0]))
        node.sum().backward()
        np.testing.assert_allclose(t.grad, [1.0])


class TestGradientDestinations:
    """``grad_out``: the gradient is computed where the caller wants it
    (``check_gradient`` runs every op above into one as well)."""

    @pytest.mark.parametrize(
        "x_shape", [(3, 4), (2, 3, 4)], ids=["gemm-into", "unbroadcast-then-copy"]
    )
    def test_a_leaf_used_twice_lands_once_then_adds(self, rng, x_shape):
        x, w_val = rng.normal(size=x_shape), rng.normal(size=(4, 4))

        def w_grad(dest):
            w = Tensor(w_val, requires_grad=True, grad_out=dest)
            ((Tensor(x) @ w) @ w).sum().backward()
            return w.grad

        dest = np.full((4, 4), np.nan)
        assert w_grad(dest) is dest
        np.testing.assert_array_equal(dest, w_grad(None))
        assert w_grad(dest) is dest  # a new tape overwrites, it does not accumulate
        np.testing.assert_array_equal(dest, w_grad(None))

    def test_either_matmul_operand_can_take_its_product_in_place(self, rng):
        a_val, b_val = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 5))

        def grads(a_dest, b_dest):
            a = Tensor(a_val, requires_grad=True, grad_out=a_dest)
            b = Tensor(b_val, requires_grad=True, grad_out=b_dest)
            matmul(a, b).sum().backward()
            return a.grad, b.grad

        # Row-strided destinations, the shape of a (W, d) block's views.
        block = np.full((2, 40), np.nan)
        a_dest, b_dest = block[:, :12].reshape(2, 3, 4), block[:, 12:32].reshape(2, 4, 5)
        got_a, got_b = grads(a_dest, b_dest)
        want_a, want_b = grads(None, None)
        assert got_a is a_dest and got_b is b_dest
        np.testing.assert_array_equal(got_a, want_a)
        np.testing.assert_array_equal(got_b, want_b)
        assert np.isnan(block[:, 32:]).all()

    @pytest.mark.parametrize("stride0", ["none", "lhs", "rhs"])
    @pytest.mark.parametrize("per_worker", [4 << 10, 1 << 20], ids=["4KiB", "1MiB"])
    @pytest.mark.parametrize("k", [1, 2, 7])
    @pytest.mark.parametrize("workers", [1, 3, 16])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_worker_batched_product_is_one_gemm_into_its_destination(
        self, rng, dtype, workers, k, per_worker, stride0
    ):
        """Into a row-strided view of a ``(W, d)`` block, small or as
        large as ``train-comm``'s ``fc1`` product: the destination holds
        the batched matmul's bits, nothing is copied in, and the bytes
        around it are untouched; a second accumulation adds."""
        rows = 256
        cols = per_worker // (rows * np.dtype(dtype).itemsize)
        x = rng.normal(size=(workers, rows, k)).astype(dtype)
        y = rng.normal(size=(workers, k, cols)).astype(dtype)
        if stride0 == "lhs":
            x = np.broadcast_to(x[0], x.shape)
        elif stride0 == "rhs":
            y = np.broadcast_to(y[0], y.shape)
        want = np.matmul(x, y)
        # A row-strided view of a (W, d) block, like a matrix-route leaf's.
        block = np.full((workers, rows * cols + 5), np.nan, dtype=dtype)
        dest = block[:, 3 : 3 + rows * cols].reshape(workers, rows, cols)
        leaf = Tensor(np.zeros_like(dest), requires_grad=True, grad_out=dest)

        with mock.patch("numpy.copyto", wraps=np.copyto) as copies:
            leaf._accumulate_matmul(x, y)
        assert copies.call_count == 0
        assert leaf.grad is dest
        assert_same_bits(dest, want)
        assert np.isnan(block[:, :3]).all() and np.isnan(block[:, -2:]).all()

        leaf._accumulate_matmul(x, y)
        assert leaf.grad is dest
        assert_same_bits(dest, want + want)

    def test_a_fold_sink_takes_the_first_worker_batched_product_whole(self, rng):
        """A destination with ``matmul`` is handed the leaf's product
        operands once and stands as the leaf's gradient."""
        calls = []

        class Sink:
            def matmul(self, x, y):
                calls.append(np.matmul(x, y))

        a_val, w_val = rng.normal(size=(3, 2, 4)), rng.normal(size=(4, 5))
        sink = Sink()
        w = Tensor(np.broadcast_to(w_val, (3, 4, 5)), requires_grad=True, grad_out=sink)
        (Tensor(a_val) @ w).sum().backward()
        assert w.grad is sink and len(calls) == 1
        plain = Tensor(np.broadcast_to(w_val, (3, 4, 5)), requires_grad=True)
        (Tensor(a_val) @ plain).sum().backward()
        assert_same_bits(calls[0], plain.grad)

    @pytest.mark.parametrize("second", ["matmul", "add"])
    def test_a_fold_sink_refuses_a_second_gradient_term(self, rng, second):
        """Σ_w (a_w + b_w) is not Σ_w a_w + Σ_w b_w in floating point, so a
        leaf whose gradient has two terms cannot fold into a sink."""

        class Sink:
            def matmul(self, x, y):
                pass

            def fold(self, grad):
                pass

        a = Tensor(rng.normal(size=(3, 2, 4)))
        w = Tensor(np.zeros((3, 4, 4)), requires_grad=True, grad_out=Sink())
        h = a @ w
        loss = (h @ w) if second == "matmul" else (h + w.sum(axis=1, keepdims=True))
        with pytest.raises(ValueError, match=r"^a fold sink takes its leaf's whole gradient as one") as err:
            loss.sum().backward()
        assert "\n" not in str(err.value)

    def test_a_fold_sink_takes_a_first_term_that_is_not_a_product_whole(self, rng):
        """A bias's gradient is no product: its first term reaches the
        sink's ``fold`` as one array of the leaf's shape, and a second
        term still raises."""
        folds = []

        class Sink:
            def matmul(self, x, y):
                raise AssertionError("not a product")

            def fold(self, grad):
                folds.append(np.array(grad))

        w_val = rng.normal(size=(3, 4))
        sink = Sink()
        w = Tensor(w_val, requires_grad=True, grad_out=sink)
        (w * 2.0).sum().backward()
        plain = Tensor(w_val, requires_grad=True)
        (plain * 2.0).sum().backward()
        assert w.grad is sink and len(folds) == 1
        assert_same_bits(folds[0], plain.grad)
        twice = Tensor(w_val, requires_grad=True, grad_out=Sink())
        with pytest.raises(ValueError, match=r"^a fold sink takes its leaf's whole gradient as one"):
            (twice * 2.0 + twice).sum().backward()

    def test_wrong_shape_is_rejected_at_construction(self):
        with pytest.raises(ValueError, match=r"destination of shape \(3, 2\).*\(2, 3\)") as err:
            Tensor(np.zeros((2, 3)), requires_grad=True, grad_out=np.zeros((3, 2)))
        assert "\n" not in str(err.value)
