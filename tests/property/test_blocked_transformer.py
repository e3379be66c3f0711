"""Property: the Transformer's worker-blocked pass keeps every bit of the per-row tape.

``TinyTransformer.loss_and_grad_workers`` runs ``W`` workers' ``(B, T)``
token batches through one tape: the embeddings and layer norms take a
leading worker axis, and every weight is a ``(W, 1, rows, cols)`` view,
so each GEMM still runs per worker and per sequence.  Its contract is
``W`` calls of the per-row body the model used to ship (kept as
``tests/models/row_oracles.py``), bit for bit: gradients
``array_equal`` *and* equal ``signbit``, losses and metrics ``==`` — in
float64 and float32, with padded labels, into NaN-prefilled
destinations, with none, and with some withheld.  One exception, shared
with the MLP and the CNN at one sample: with one token per worker
(``B = T = 1``) the per-row body sums a bias gradient over a batch of one,
which turns a ``-0.0`` into ``+0.0``, and the blocked pass has nothing to
sum.  A negative control shows the comparison sees a one-ulp flip.
"""

from __future__ import annotations

import warnings
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")  # optional dep; CI installs it

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import autodiff
from repro.models.autodiff import Tensor
from repro.models.nn.transformer import TinyTransformer
from repro.utils.seeding import new_rng
from tests.models.kernel_oracles import assert_same_bits
from tests.models.row_oracles import transformer_loss_and_grad

#: Which parameters get a caller's destination.
DESTINATIONS = {
    "all": None,
    "some": ("embed.weight", "attn.wq", "ln1.gamma", "ffn.b1", "out.weight"),
    "none": (),
}

#: The biases added under a batch axis: a one-token batch's gradient is
#: summed over one element per row in the per-row body only.
BIASES = ("ffn.b1", "ffn.b2", "out.bias")


@st.composite
def blocks(draw):
    workers, local = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    max_len = draw(st.integers(1, 8))
    length = draw(st.integers(1, max_len))
    d_model, d_ff, vocab = 2 * draw(st.integers(1, 8)), draw(st.integers(1, 17)), draw(st.integers(2, 19))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    padding = draw(st.sampled_from([0.0, 0.2, 0.6]))
    return workers, local, length, (vocab, d_model, d_ff, max_len), dtype, padding


def _case(block, seed):
    workers, local, length, shape, dtype, padding = block
    model = TinyTransformer(*shape)
    params = {name: value.astype(dtype) for name, value in model.init_params(new_rng(seed)).items()}
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, model.vocab_size, size=(workers, local, length))
    ys = rng.integers(0, model.vocab_size, size=(workers, local, length))
    ys[rng.random(ys.shape) < padding] = -1
    ys[:, 0, 0] = np.abs(ys[:, 0, 0])  # every worker keeps a label (see below)
    return model, params, xs, ys


def _blocked(model, params, xs, ys, given_names):
    names = params if given_names is None else given_names
    out = {name: np.full((len(xs), *params[name].shape), np.nan, params[name].dtype) for name in names}
    losses, grads, metrics = model.loss_and_grad_workers(params, xs, ys, out or None)
    for name in names:
        assert grads[name] is out[name]  # computed in the destination: nothing to copy
    return losses, grads, metrics


def _assert_equals_per_row(model, params, xs, ys, blocked) -> None:
    losses, grads, metrics = blocked
    assert len(losses) == len(metrics) == len(xs) and sorted(grads) == sorted(params)
    one_token = xs.shape[1] * xs.shape[2] == 1
    for worker, (bx, by) in enumerate(zip(xs, ys)):
        want_loss, want_grads, want_metrics = transformer_loss_and_grad(model, params, bx, by)
        assert float(losses[worker]) == want_loss
        assert metrics[worker] == want_metrics
        for name, want in want_grads.items():
            assert grads[name].dtype == want.dtype
            if one_token and name in BIASES:
                np.testing.assert_array_equal(grads[name][worker], want)
            else:
                assert_same_bits(grads[name][worker], want)


@settings(max_examples=100, deadline=None)
@given(block=blocks(), given_names=st.sampled_from(sorted(DESTINATIONS)), seed=st.integers(0, 2**16))
def test_blocked_pass_equals_the_per_row_calls_bit_for_bit(block, given_names, seed):
    model, params, xs, ys = _case(block, seed)
    blocked = _blocked(model, params, xs, ys, DESTINATIONS[given_names])
    _assert_equals_per_row(model, params, xs, ys, blocked)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("workers, local", [(8, 16), (3, 1), (1, 4)])
def test_the_shipped_shape_equals_the_per_row_calls(dtype, workers, local):
    """The registry's Transformer (Fig. 10, Table 2) at Fig. 10's step
    (8 workers x 16 sequences of 10 tokens) and around it."""
    block = (workers, local, 10, (32, 24, 48, 10), dtype, 0.1)
    model, params, xs, ys = _case(block, seed=workers)
    blocked = _blocked(model, params, xs, ys, DESTINATIONS["all"])
    _assert_equals_per_row(model, params, xs, ys, blocked)


def test_a_float32_transformer_computes_in_float32():
    """The attention scale is built in the activations' dtype: with float32
    parameters every tensor on the tape, the logits, the losses and every
    gradient are float32 (a float64 scale promoted the scores onward)."""
    model, params, xs, ys = _case((3, 2, 5, (11, 6, 5, 6), np.float32, 0.2), seed=4)
    created, init = [], Tensor.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        created.append(self)

    with mock.patch.object(Tensor, "__init__", recording):
        losses, logits, grads = autodiff.tape_pass(model._logits, params, xs, ys, None)
    assert logits.dtype == losses.dtype == np.float32
    assert {grad.dtype for grad in grads.values()} == {np.dtype(np.float32)}
    assert {tensor.data.dtype for tensor in created} == {np.dtype(np.float32)}
    blocked = _blocked(model, params, xs, ys, DESTINATIONS["all"])
    _assert_equals_per_row(model, params, xs, ys, blocked)


def test_a_worker_whose_labels_are_all_padding_reads_zero_accuracy():
    """Its loss is 0 and its gradients are the per-row body's; its token
    accuracy counts its valid labels as at least one, as its loss does —
    where the per-row body read the mean of an empty slice."""
    model, params, xs, ys = _case((3, 2, 4, (11, 6, 5, 4), np.float64, 0.0), seed=3)
    ys[1] = -1
    losses, grads, metrics = _blocked(model, params, xs, ys, DESTINATIONS["all"])
    assert losses[1] == 0.0 and metrics[1] == {"token_accuracy": 0.0}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the oracle's empty mean
        want_loss, want_grads, want_metrics = transformer_loss_and_grad(model, params, xs[1], ys[1])
    assert np.isnan(want_metrics["token_accuracy"]) and want_loss == 0.0
    for name, want in want_grads.items():
        assert_same_bits(grads[name][1], want)


def test_negative_control_a_one_ulp_flip_fails_the_comparison():
    model, params, xs, ys = _case((3, 2, 5, (13, 8, 9, 6), np.float64, 0.2), seed=2)
    losses, grads, metrics = _blocked(model, params, xs, ys, DESTINATIONS["all"])
    _assert_equals_per_row(model, params, xs, ys, (losses, grads, metrics))
    index = (1, 3, 2)
    grads["attn.wv"][index] = np.nextafter(grads["attn.wv"][index], np.inf)
    with pytest.raises(AssertionError):
        _assert_equals_per_row(model, params, xs, ys, (losses, grads, metrics))
