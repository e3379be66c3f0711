"""The compute-stage kernel: one gradient per row, blocked or per row.

:func:`repro.utils.partition.gradient_rows` is the trainer's compute
stage.  Its two bodies must agree bit for bit with
an explicit per-row reference, and the choice between them must follow
only what the kernel can observe (the model's capability, the row count,
whether the batches stack).
"""

import numpy as np
import pytest

from repro.api.registry import build_workload
from repro.models.nn.mlp import MLPClassifier
from repro.utils.partition import FlatLayout, gradient_rows
from repro.utils.seeding import new_rng
from tests.conftest import PhaseTimer, peak_bytes
from tests.utils.flatten_oracle import flatten_tensors


class _Proxy:
    """Delegating proxy that counts model calls — the shape of
    ``benchmarks/e2e/tracing.traced``: the two gradient methods are
    wrapped when the target has them, the rest passes through."""

    def __init__(self, target):
        self._target = target
        self.calls = {}
        for method in ("loss_and_grad", "loss_and_grad_workers"):
            if hasattr(target, method):
                setattr(self, method, self._counted(method))

    def _counted(self, method):
        def call(*args):
            self.calls[method] = self.calls.get(method, 0) + 1
            return getattr(self._target, method)(*args)

        return call

    def __getattr__(self, name):
        return getattr(self._target, name)


class _Elsewhere:
    """A model that takes ``out`` and computes (some of) its gradients
    elsewhere: the destinations named in ``ignored`` never reach the tape."""

    def __init__(self, target, ignored):
        self._target = target
        self._ignored = ignored
        if hasattr(target, "loss_and_grad_workers"):
            self.loss_and_grad_workers = self._dropping("loss_and_grad_workers")
        self.loss_and_grad = self._dropping("loss_and_grad")

    def _dropping(self, method):
        def call(params, x, y, out):
            kept = {name: dest for name, dest in out.items() if name not in self._ignored}
            return getattr(self._target, method)(params, x, y, kept)

        return call


class _PerRowOnly:
    """A model with its blocked pass hidden: every row is one call."""

    def __init__(self, target):
        self.loss_and_grad = target.loss_and_grad


@pytest.fixture
def writes(monkeypatch):
    """Names copied by ``FlatLayout.write`` while the test runs, per call."""
    copied = []
    write = FlatLayout.write

    def counted(self, out, tensors):
        copied.append(sorted(tensors))
        write(self, out, tensors)

    monkeypatch.setattr(FlatLayout, "write", counted)
    return copied


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
    """The per-row loop, spelled out with the unfused primitives."""
    rows, losses, metrics = [], [], []
    for bx, by in batches:
        loss, grads, row_metrics = model.loss_and_grad(params, bx, by)
        rows.append(flatten_tensors([grads[name] for name in params])[0])
        losses.append(loss)
        metrics.append(row_metrics)
    return np.stack(rows), losses, metrics


BLOCKED = {"loss_and_grad_workers": 1}


@pytest.mark.parametrize(
    "name, sizes, pad, calls",
    [
        ("mlp", [8] * 4, False, BLOCKED),
        ("mlp", [2] * 16, False, BLOCKED),
        ("mlp-tiny", [1] * 3, False, BLOCKED),
        ("mlp-tiny", [5] * 2, False, BLOCKED),
        ("mlp", [8, 8, 6, 8], False, {"loss_and_grad": 4}),  # ragged
        ("mlp", [8] * 4, True, {"loss_and_grad": 4}),  # padded label
        ("mlp", [8], False, {"loss_and_grad": 1}),  # a one-row chunk
        ("cnn", [4] * 3, False, BLOCKED),
        ("cnn", [16] * 8, False, BLOCKED),  # the benchmark's step: passes of 3 + 3 + 2 workers
        ("cnn", [4] * 5, False, BLOCKED),
        ("cnn", [1] * 3, False, BLOCKED),  # one-sample batches: the per-row body, inside
        ("cnn", [4, 4, 3, 4], False, {"loss_and_grad": 4}),  # ragged
        ("cnn", [4] * 3, True, {"loss_and_grad": 3}),  # padded label
    ],
)
def test_rows_losses_and_metrics_equal_the_per_row_reference(name, sizes, pad, calls, writes):
    model, batches = _batches(name, sizes, pad)
    params = model.init_params(new_rng(4))
    layout = FlatLayout.of(params)
    want_rows, want_losses, want_metrics = _reference(model, params, batches)

    proxy = _Proxy(model)
    timer = PhaseTimer()
    out = np.full((len(batches), layout.dim), np.nan, dtype=layout.dtype)
    losses, metrics = gradient_rows(proxy, params, batches, out, layout, timer)

    assert proxy.calls == calls
    assert writes == []  # computed in place, blocked or per row: nothing to copy
    np.testing.assert_array_equal(out, want_rows)
    assert losses == want_losses
    assert metrics == want_metrics  # per row, so any fold of them agrees
    # One forward_backward and one fuse record per model call.
    n_calls = sum(calls.values())
    assert timer.calls == {"forward_backward": n_calls, "fuse": n_calls}


def test_mlp_blocked_and_per_row_bodies_agree_bit_for_bit(mlp_dtype):
    """The same batches through the blocked pass and through per-row
    calls give the same rows, losses and metrics, in either dtype."""
    model, batches = _batches("mlp", [2] * 16)
    params = model.init_params(new_rng(4))
    layout = FlatLayout.of(params)
    assert layout.dtype == mlp_dtype
    results = []
    for body, calls in ((model, BLOCKED), (_PerRowOnly(model), {"loss_and_grad": 16})):
        proxy = _Proxy(body)
        out = np.full((len(batches), layout.dim), np.nan, dtype=layout.dtype)
        results.append((out, *gradient_rows(proxy, params, batches, out, layout)))
        assert proxy.calls == calls
    (blocked, *blocked_rest), (per_row, *per_row_rest) = results
    np.testing.assert_array_equal(blocked, per_row)
    assert blocked_rest == per_row_rest


@pytest.mark.parametrize("sizes", [[8] * 4, [8, 8, 6, 8]], ids=["blocked", "per-row"])
@pytest.mark.parametrize("some", [False, True], ids=["all", "some"])
def test_gradients_a_model_computes_elsewhere_are_copied_in(sizes, some, writes):
    """A model that ignores its destinations still fills the rows, and
    only the tensors it did not compute in place are copied."""
    model, batches = _batches("mlp", sizes)
    params = model.init_params(new_rng(4))
    layout = FlatLayout.of(params)
    ignored = ["fc1.weight", "fc2.bias"] if some else sorted(layout.names)
    out = np.full((len(batches), layout.dim), np.nan)
    gradient_rows(_Elsewhere(model, ignored), params, batches, out, layout)
    np.testing.assert_array_equal(out, _reference(model, params, batches)[0])
    n_calls = 1 if len(set(sizes)) == 1 else len(batches)
    assert writes == [ignored] * n_calls


@pytest.mark.parametrize(
    "shape", [(3, None), (5, None), (4, -1)], ids=["rows-short", "rows-over", "dim-off"]
)
def test_a_block_that_does_not_match_is_rejected_before_any_model_call(shape):
    model, batches = _batches("mlp", [8, 8, 6, 8])
    params = model.init_params(new_rng(4))
    layout = FlatLayout.of(params)
    rows, dim = shape[0], layout.dim + (shape[1] or 0)
    proxy = _Proxy(model)
    with pytest.raises(ValueError) as err:
        gradient_rows(proxy, params, batches, np.zeros((rows, dim)), layout)
    message = str(err.value)
    assert f"({rows}, {dim})" in message and f"4 rows of {layout.dim}" in message
    assert "\n" not in message and proxy.calls == {}


def test_row_block_destination_leaves_other_rows_untouched():
    model, batches = _batches("mlp", [4] * 4)
    params = model.init_params(new_rng(4))
    layout = FlatLayout.of(params)
    mat = np.full((8, layout.dim), 7.0)
    gradient_rows(model, params, batches, mat[2:6], layout)
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
    peak = peak_bytes(lambda: gradient_rows(model, params, list(zip(xs, ys)), out, layout))
    assert peak < 0.25 * out.nbytes, peak / out.nbytes


def test_a_warmed_call_through_the_tile_route_allocates_no_gradient_sized_array():
    """At ``train-comm``'s shape ``fc1``'s 1 MiB per-worker products pass
    through one reused tile (``_TILE_BYTES``): the tile is one worker's
    product, ≈ 5 % of the block, not a ``(W, d)``-sized array."""
    model, params, xs, ys = _wide_mlp_rows(hidden=(512, 512))
    layout = FlatLayout.of(params)
    out = np.zeros((len(xs), layout.dim), dtype=layout.dtype)
    peak = peak_bytes(lambda: gradient_rows(model, params, list(zip(xs, ys)), out, layout))
    assert peak < 0.25 * out.nbytes, peak / out.nbytes


def test_layout_round_trips_through_a_flat_buffer():
    params = MLPClassifier(3, (4,), 2).init_params(new_rng(0))
    layout = FlatLayout.of(params)
    assert layout.names == tuple(params)
    assert layout.dim == sum(p.size for p in params.values())
    flat = np.empty(layout.dim)
    layout.write(flat, params)
    np.testing.assert_array_equal(flat, flatten_tensors(list(params.values()))[0])
    views = layout.views(flat)
    for name, value in params.items():
        np.testing.assert_array_equal(views[name], value)
        assert np.shares_memory(views[name], flat)


def test_layout_takes_the_tensors_one_dtype_and_rejects_a_mix_in_one_line():
    params = MLPClassifier(3, (4,), 2).init_params(new_rng(0))
    assert FlatLayout.of(params).dtype == np.float32
    as64 = {name: value.astype(np.float64) for name, value in params.items()}
    assert FlatLayout.of(as64).dtype == np.float64
    mixed = params | {"fc1.weight": as64["fc1.weight"]}
    with pytest.raises(ValueError, match="mixed dtypes") as err:
        FlatLayout.of(mixed)
    message = str(err.value)
    assert "\n" not in message
    assert "fc0.weight is float32" in message and "fc1.weight is float64" in message


def test_layout_views_of_a_row_block_are_views_with_contiguous_tensors():
    params = MLPClassifier(3, (4,), 2).init_params(new_rng(0))
    layout = FlatLayout.of(params)
    mat = np.zeros((5, layout.dim + 3))
    block = mat[1:4, : layout.dim]  # rows strided wider than dim
    views = layout.views(block)
    for index, (name, value) in enumerate(params.items()):
        assert views[name].shape == (3, *value.shape)
        assert views[name][0].flags.c_contiguous
        views[name][...] = index + 1.0
    want = np.concatenate([np.full(v.size, i + 1.0) for i, v in enumerate(params.values())])
    np.testing.assert_array_equal(block, np.tile(want, (3, 1)))
    assert (mat[0] == 0).all() and (mat[4] == 0).all() and (mat[:, layout.dim :] == 0).all()
    with pytest.raises(ValueError, match="last axis is not contiguous"):
        layout.views(np.zeros((2, 2 * layout.dim))[:, ::2])
