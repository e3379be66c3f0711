"""The trainer's compute stage: one gradient per worker, in one blocked call.

:func:`repro.train.trainer._gradients` is the compute stage of both
routes: it stacks the workers' batches, makes one call of the model's
blocked pass with the route's destinations, and lands any gradient the
model returned elsewhere.  Here it runs on the matrix route's
destinations, ``layout.views`` of a ``(W, d)`` block, and must agree
with the per-row tape the models used to ship
(``tests/models/row_oracles.py``) and give the same bytes however many
rows share the call.
"""

import numpy as np
import pytest

from repro.api.registry import build_workload
from repro.models.nn.mlp import MLPClassifier
from repro.train.trainer import _gradients
from repro.utils.partition import FlatLayout
from repro.utils.seeding import new_rng
from tests.conftest import PhaseTimer, peak_bytes
from tests.models import row_oracles
from tests.utils.flatten_oracle import flatten_tensors


class _Proxy:
    """Delegating proxy that counts model calls — the shape of
    ``benchmarks/e2e/tracing.traced``: the gradient method is wrapped,
    the rest passes through."""

    def __init__(self, target):
        self._target = target
        self.calls = {}

    def loss_and_grad_workers(self, *args):
        self.calls["loss_and_grad_workers"] = self.calls.get("loss_and_grad_workers", 0) + 1
        return self._target.loss_and_grad_workers(*args)

    def __getattr__(self, name):
        return getattr(self._target, name)


class _Elsewhere:
    """A model that takes ``out`` and computes (some of) its gradients
    elsewhere: the destinations named in ``ignored`` never reach the tape."""

    def __init__(self, target, ignored):
        self._target = target
        self._ignored = ignored

    def loss_and_grad_workers(self, params, xs, ys, out):
        kept = {name: dest for name, dest in out.items() if name not in self._ignored}
        return self._target.loss_and_grad_workers(params, xs, ys, kept)


class _Landed:
    """The matrix route's ``land`` (``np.copyto``), noting the name of
    every gradient it copies in."""

    def __init__(self, dests):
        self.names = {id(dest): name for name, dest in dests.items()}
        self.copied = []

    def __call__(self, dest, grad):
        self.copied.append(self.names[id(dest)])
        np.copyto(dest, grad)


def _compute(model, params, batches, out, layout, timer=None):
    """The compute stage over ``out``'s rows, as the matrix route runs it;
    ``(losses, metrics, names copied in)``."""
    dests = layout.views(out)
    land = _Landed(dests)
    losses, metrics = _gradients(model, params, batches, dests, land, timer)
    return losses, metrics, sorted(land.copied)


def _batches(name, sizes, pad=False):
    workload = build_workload(name, num_samples=max(64, sum(sizes)), rng=new_rng(3))
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    batches = [
        (workload.x[lo:hi], workload.y[lo:hi].copy())
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    if pad:
        batches[-1][1][-1] = -1  # the "ignore this sample" label convention
    return workload.model, batches


def _reference(model, params, batches):
    """The per-row loop over the per-row oracle, flattened with the
    unfused primitives."""
    rows, losses, metrics = [], [], []
    for bx, by in batches:
        loss, grads, row_metrics = row_oracles.loss_and_grad(model, params, bx, by)
        rows.append(flatten_tensors([grads[name] for name in params])[0])
        losses.append(loss)
        metrics.append(row_metrics)
    return np.stack(rows), losses, metrics


@pytest.mark.parametrize(
    "name, sizes, pad",
    [
        ("mlp", [8] * 4, False),
        ("mlp", [2] * 16, False),
        ("mlp-tiny", [1] * 3, False),
        ("mlp-tiny", [5] * 2, False),
        ("mlp", [8] * 4, True),  # padded label
        ("mlp", [8], False),  # a one-row chunk
        ("cnn", [4] * 3, False),
        ("cnn", [16] * 8, False),  # the benchmark's step: four passes of 2 workers
        ("cnn", [4] * 5, False),
        ("cnn", [1] * 3, False),  # one-sample batches: one worker per pass, inside
        ("cnn", [4] * 3, True),  # padded label
        ("transformer", [4] * 3, False),
        ("transformer", [16] * 8, False),  # Fig. 10's step
        ("transformer", [1] * 3, False),
        ("transformer", [4] * 3, True),  # a padded sequence
    ],
)
def test_rows_losses_and_metrics_equal_the_per_row_reference(name, sizes, pad):
    model, batches = _batches(name, sizes, pad)
    params = model.init_params(new_rng(4))
    layout = FlatLayout.of(params)
    want_rows, want_losses, want_metrics = _reference(model, params, batches)

    proxy = _Proxy(model)
    timer = PhaseTimer()
    out = np.full((len(batches), layout.dim), np.nan, dtype=layout.dtype)
    losses, metrics, copied = _compute(proxy, params, batches, out, layout, timer)

    assert proxy.calls == {"loss_and_grad_workers": 1}
    assert copied == []  # every gradient computed in place
    np.testing.assert_array_equal(out, want_rows)
    assert losses == want_losses
    assert metrics == want_metrics  # per row, so any fold of them agrees
    assert timer.calls == {"forward_backward": 1, "fuse": 1}


@pytest.mark.parametrize("pad", ["none", "one-label", "a-whole-worker"])
@pytest.mark.parametrize("local", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "name, dtype",
    [
        ("mlp", np.float32),
        ("mlp", np.float64),
        ("mlp-tiny", np.float32),
        ("mlp-tiny", np.float64),
        ("cnn", np.float64),
        ("transformer", np.float32),
        ("transformer", np.float64),
    ],
)
def test_one_call_over_w_rows_equals_w_one_row_calls_byte_for_byte(
    name, dtype, local, pad, monkeypatch
):
    """Grouping invariance: the bytes of a row — the sign of zero
    included, which ``assert_array_equal`` cannot see — do not depend on
    how many rows share the call, padded labels and a worker whose labels
    are all padding included, in each dtype the model may train in."""
    monkeypatch.setattr(MLPClassifier, "dtype", dtype)
    model, batches = _batches(name, [local] * 4, pad != "none")
    if pad == "a-whole-worker":
        batches[1][1][:] = -1
    params = {name: value.astype(dtype) for name, value in model.init_params(new_rng(4)).items()}
    layout = FlatLayout.of(params)
    assert layout.dtype == dtype
    whole = np.full((len(batches), layout.dim), np.nan, dtype=layout.dtype)
    whole_losses, whole_metrics, _ = _compute(model, params, batches, whole, layout)
    rows = np.full_like(whole, np.nan)
    row_losses, row_metrics = [], []
    for i, batch in enumerate(batches):
        (loss,), (metrics,), _ = _compute(model, params, [batch], rows[i : i + 1], layout)
        row_losses.append(loss)
        row_metrics.append(metrics)
    assert whole.tobytes() == rows.tobytes()
    assert np.array(whole_losses).tobytes() == np.array(row_losses).tobytes()
    assert whole_metrics == row_metrics


@pytest.mark.parametrize("some", [False, True], ids=["all", "some"])
@pytest.mark.parametrize(
    "name, some_names",
    [
        ("mlp", ["fc1.weight", "fc2.bias"]),
        ("cnn", ["conv2.weight", "fc.bias"]),
        ("transformer", ["attn.wk", "ln2.beta"]),
    ],
    ids=["mlp", "cnn", "transformer"],
)
def test_gradients_a_model_computes_elsewhere_are_copied_in(name, some_names, some):
    """A model that ignores its destinations still fills the rows, and
    only the tensors it did not compute in place are copied."""
    model, batches = _batches(name, [8] * 4)
    params = model.init_params(new_rng(4))
    layout = FlatLayout.of(params)
    assert set(some_names) <= set(layout.names)
    ignored = sorted(some_names) if some else sorted(layout.names)
    out = np.full((len(batches), layout.dim), np.nan)
    _, _, copied = _compute(_Elsewhere(model, ignored), params, batches, out, layout)
    np.testing.assert_array_equal(out, _reference(model, params, batches)[0])
    assert copied == ignored


def test_row_block_destination_leaves_other_rows_untouched():
    model, batches = _batches("mlp", [4] * 4)
    params = model.init_params(new_rng(4))
    layout = FlatLayout.of(params)
    mat = np.full((8, layout.dim), 7.0)
    _compute(model, params, batches, mat[2:6], layout)
    np.testing.assert_array_equal(mat[2:6], _reference(model, params, batches)[0])
    assert (mat[:2] == 7.0).all() and (mat[6:] == 7.0).all()


def _wide_mlp_rows(workers=16, local=2, hidden=(256, 256)):
    model = MLPClassifier(64, hidden, 16)
    params = model.init_params(new_rng(0))
    rng = new_rng(1)
    xs = rng.normal(size=(workers, local, 64))
    ys = rng.integers(0, 16, size=(workers, local))
    return model, params, xs, ys


def test_blocked_pass_replicates_no_parameters():
    """The worker axis is a view: one call's peak allocation stays near
    the ``(W, d)`` gradients it returns (2.08x with a per-worker
    parameter copy, 1.08x on the view)."""
    model, params, xs, ys = _wide_mlp_rows()
    peak = peak_bytes(lambda: model.loss_and_grad_workers(params, xs, ys))
    layout = FlatLayout.of(params)
    grads_bytes = len(xs) * layout.dim * layout.dtype.itemsize
    assert peak < 1.5 * grads_bytes, peak / grads_bytes


def test_a_warmed_call_allocates_no_gradient_sized_array():
    """The gradient exists once, in ``out``: the GEMMs write there, so
    one call's peak allocation is activations and biases (1.08x the
    ``(W, d)`` block when the products were allocated and then copied,
    0.08x computed in place)."""
    model, params, xs, ys = _wide_mlp_rows()
    layout = FlatLayout.of(params)
    out = np.zeros((len(xs), layout.dim), dtype=layout.dtype)
    peak = peak_bytes(lambda: _compute(model, params, list(zip(xs, ys)), out, layout))
    assert peak < 0.25 * out.nbytes, peak / out.nbytes


def test_a_warmed_call_at_the_train_comm_shape_allocates_no_gradient_sized_array():
    """At ``train-comm``'s shape ``fc1``'s 1 MiB per-worker products are
    one batched GEMM straight into the ``(W, d)`` block: nothing
    gradient-sized is allocated on the way."""
    model, params, xs, ys = _wide_mlp_rows(hidden=(512, 512))
    layout = FlatLayout.of(params)
    out = np.zeros((len(xs), layout.dim), dtype=layout.dtype)
    peak = peak_bytes(lambda: _compute(model, params, list(zip(xs, ys)), out, layout))
    assert peak < 0.25 * out.nbytes, peak / out.nbytes
