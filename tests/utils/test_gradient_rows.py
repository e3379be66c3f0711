"""The compute-stage kernel: one gradient per row, in blocked calls.

:func:`repro.utils.partition.gradient_rows` is the trainer's compute
stage.  Whether it makes one blocked call or one call per batch shape, it must
agree with the per-row tape the models used to ship
(``tests/models/row_oracles.py``), give the same bytes however the rows
are grouped into calls, and choose between the two from only what the
kernel can observe (the batches' shapes).
"""

import numpy as np
import pytest

from repro.api.registry import build_workload
from repro.models.nn.mlp import MLPClassifier
from repro.utils.partition import FlatLayout, gradient_rows
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
    """The per-row loop over the per-row oracle, flattened with the
    unfused primitives."""
    rows, losses, metrics = [], [], []
    for bx, by in batches:
        loss, grads, row_metrics = row_oracles.loss_and_grad(model, params, bx, by)
        rows.append(flatten_tensors([grads[name] for name in params])[0])
        losses.append(loss)
        metrics.append(row_metrics)
    return np.stack(rows), losses, metrics


BLOCKED = {"loss_and_grad_workers": 1}
RAGGED = {"loss_and_grad_workers": 2}  # one blocked call per batch shape


@pytest.mark.parametrize(
    "name, sizes, pad, calls",
    [
        ("mlp", [8] * 4, False, BLOCKED),
        ("mlp", [2] * 16, False, BLOCKED),
        ("mlp-tiny", [1] * 3, False, BLOCKED),
        ("mlp-tiny", [5] * 2, False, BLOCKED),
        ("mlp", [8, 8, 6, 8], False, RAGGED),  # rows 0, 1, 3 are not one slice
        ("mlp", [8, 8, 8, 6], False, RAGGED),
        ("mlp", [8] * 4, True, BLOCKED),  # padded label
        ("mlp", [8], False, BLOCKED),  # a one-row chunk
        ("cnn", [4] * 3, False, BLOCKED),
        ("cnn", [16] * 8, False, BLOCKED),  # the benchmark's step: four passes of 2 workers
        ("cnn", [4] * 5, False, BLOCKED),
        ("cnn", [1] * 3, False, BLOCKED),  # one-sample batches: one worker per pass, inside
        ("cnn", [4, 4, 3, 4], False, RAGGED),
        ("cnn", [4, 4, 4, 3], False, RAGGED),
        ("cnn", [4] * 3, True, BLOCKED),  # padded label
        ("transformer", [4] * 3, False, BLOCKED),
        ("transformer", [16] * 8, False, BLOCKED),  # Fig. 10's step
        ("transformer", [1] * 3, False, BLOCKED),
        ("transformer", [4, 4, 3, 4], False, RAGGED),
        ("transformer", [4] * 3, True, BLOCKED),  # a padded sequence
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
    # Computed in place: only rows of one shape that are not one slice of
    # ``out`` (rows 0, 1 and 3 of 8, 8, 6, 8) get no destinations and are copied.
    runs = 1 + sum(a != b for a, b in zip(sizes, sizes[1:]))
    assert writes == [sorted(layout.names)] * (runs - len(set(sizes)))
    np.testing.assert_array_equal(out, want_rows)
    assert losses == want_losses
    assert metrics == want_metrics  # per row, so any fold of them agrees
    # One forward_backward and one fuse record per model call.
    n_calls = sum(calls.values())
    assert timer.calls == {"forward_backward": n_calls, "fuse": n_calls}


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
    whole_losses, whole_metrics = gradient_rows(model, params, batches, whole, layout)
    rows = np.full_like(whole, np.nan)
    row_losses, row_metrics = [], []
    for i, batch in enumerate(batches):
        (loss,), (metrics,) = gradient_rows(model, params, [batch], rows[i : i + 1], layout)
        row_losses.append(loss)
        row_metrics.append(metrics)
    assert whole.tobytes() == rows.tobytes()
    assert np.array(whole_losses).tobytes() == np.array(row_losses).tobytes()
    assert whole_metrics == row_metrics


@pytest.mark.parametrize(
    "sizes, scattered",
    [([8] * 4, False), ([8, 8, 8, 6], False), ([8, 8, 6, 8], True)],
    ids=["blocked", "ragged", "scattered"],
)
@pytest.mark.parametrize("some", [False, True], ids=["all", "some"])
def test_gradients_a_model_computes_elsewhere_are_copied_in(sizes, scattered, some, writes):
    """A model that ignores its destinations still fills the rows, and
    only the tensors it did not compute in place are copied: all of them
    for rows of one shape that are not one slice of ``out``."""
    model, batches = _batches("mlp", sizes)
    params = model.init_params(new_rng(4))
    layout = FlatLayout.of(params)
    ignored = ["fc1.weight", "fc2.bias"] if some else sorted(layout.names)
    out = np.full((len(batches), layout.dim), np.nan)
    gradient_rows(_Elsewhere(model, ignored), params, batches, out, layout)
    np.testing.assert_array_equal(out, _reference(model, params, batches)[0])
    want = [ignored] * len(set(sizes))  # one call per batch shape
    if scattered:
        want[0] = sorted(layout.names)
    assert writes == want


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


def test_a_warmed_call_at_the_train_comm_shape_allocates_no_gradient_sized_array():
    """At ``train-comm``'s shape ``fc1``'s 1 MiB per-worker products are
    one batched GEMM straight into the ``(W, d)`` block: nothing
    gradient-sized is allocated on the way."""
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
