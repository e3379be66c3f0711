"""Trainable NumPy models: learning signal + interface contracts."""

import numpy as np
import pytest

from repro.api.registry import MODELS, build_workload
from repro.models.autodiff import Tensor
from repro.models.nn.convnet import SmallConvNet
from repro.models.nn.mlp import MLPClassifier
from repro.models.nn.transformer import TinyTransformer, make_copy_task
from repro.optim.sgd import SGD
from repro.train.synthetic import make_spiral_classification, make_synthetic_images
from repro.utils.partition import FlatLayout
from repro.utils.seeding import new_rng


def train_steps(model, params, x, y, steps=60, lr=0.1, batch=32):
    opt = SGD(lr=lr, momentum=0.9)
    losses = []
    rng = new_rng(0)
    for _ in range(steps):
        idx = rng.choice(len(x), size=min(batch, len(x)), replace=False)
        loss, grads, _ = model.loss_and_grad(params, x[idx], y[idx])
        opt.step(params, grads)
        losses.append(loss)
    return losses


class TestMLP:
    def test_param_shapes(self, rng):
        model = MLPClassifier(input_dim=2, hidden=(8, 8), num_classes=3)
        params = model.init_params(rng)
        assert params["fc0.weight"].shape == (2, 8)
        assert params["fc2.weight"].shape == (8, 3)
        assert set(params) == {
            "fc0.weight", "fc0.bias", "fc1.weight", "fc1.bias",
            "fc2.weight", "fc2.bias",
        }

    def test_training_reduces_loss(self, rng):
        x, y = make_spiral_classification(256, num_classes=3, rng=rng)
        model = MLPClassifier(input_dim=2, hidden=(24,), num_classes=3)
        params = model.init_params(rng)
        losses = train_steps(model, params, x, y)
        assert np.mean(losses[-10:]) < 0.5 * losses[0]

    def test_topk_evaluate(self, rng):
        model = MLPClassifier(input_dim=2, hidden=(4,), num_classes=4)
        params = model.init_params(rng)
        x, y = make_spiral_classification(64, num_classes=4, rng=rng)
        top1 = model.evaluate(params, x, y, topk=1)
        top4 = model.evaluate(params, x, y, topk=4)
        assert 0.0 <= top1 <= top4 <= 1.0
        assert top4 == 1.0  # top-C is always perfect

    def test_validation(self):
        with pytest.raises(ValueError):
            MLPClassifier(input_dim=0)
        with pytest.raises(ValueError):
            MLPClassifier(input_dim=2, num_classes=1)


class TestConvNet:
    def test_training_reduces_loss(self, rng):
        x, y = make_synthetic_images(192, num_classes=3, image_size=12, rng=rng)
        model = SmallConvNet(channels=(6, 8), num_classes=3, image_size=12)
        params = model.init_params(rng)
        losses = train_steps(model, params, x, y, steps=50, lr=0.1)
        assert np.mean(losses[-10:]) < 0.8 * losses[0]

    def test_gradients_for_all_params(self, rng):
        model = SmallConvNet(channels=(4, 4), num_classes=3, image_size=8)
        params = model.init_params(rng)
        x, y = make_synthetic_images(8, num_classes=3, image_size=8, rng=rng)
        _, grads, metrics = model.loss_and_grad(params, x, y)
        assert set(grads) == set(params)
        for name, g in grads.items():
            assert g.shape == params[name].shape
            assert np.isfinite(g).all()
        assert 0.0 <= metrics["accuracy"] <= 1.0

    def test_odd_image_size_rejected(self):
        with pytest.raises(ValueError):
            SmallConvNet(image_size=13)


class TestTinyTransformer:
    def test_copy_task_learnable(self, rng):
        x, y = make_copy_task(rng, num_samples=512, vocab_size=16, seq_len=8)
        model = TinyTransformer(vocab_size=16, d_model=24, d_ff=48, max_len=8)
        params = model.init_params(rng)
        losses = train_steps(model, params, x, y, steps=120, lr=0.3, batch=64)
        assert np.mean(losses[-10:]) < 0.6 * np.mean(losses[:5])

    def test_shift_task_needs_attention(self, rng):
        # y depends on the *neighbouring* token, so accuracy above chance
        # proves attention moved information across positions.
        x, y = make_copy_task(rng, num_samples=600, vocab_size=12, seq_len=6, shift=1)
        model = TinyTransformer(vocab_size=12, d_model=24, d_ff=48, max_len=6)
        params = model.init_params(rng)
        train_steps(model, params, x, y, steps=250, lr=0.3, batch=64)
        acc = model.evaluate(params, x[:200], y[:200])
        assert acc > 2.5 / 12  # comfortably above the 1/12 chance level

    def test_padding_ignored_in_loss(self, rng):
        model = TinyTransformer(vocab_size=8, d_model=8, d_ff=16, max_len=4)
        params = model.init_params(rng)
        x = rng.integers(1, 8, size=(2, 4))
        y_full = rng.integers(0, 8, size=(2, 4))
        y_pad = y_full.copy()
        y_pad[:, 2:] = -1
        loss_full, _, _ = model.loss_and_grad(params, x, y_full)
        loss_pad, _, _ = model.loss_and_grad(params, x, y_pad)
        assert loss_full != loss_pad  # padding actually changes the loss

    def test_sequence_too_long_rejected(self, rng):
        model = TinyTransformer(vocab_size=8, max_len=4)
        params = {k: v for k, v in model.init_params(rng).items()}
        tensors = {k: Tensor(v) for k, v in params.items()}
        with pytest.raises(ValueError):
            model.logits(tensors, rng.integers(1, 8, size=(1, 6)))

    def test_copy_task_shift_validation(self, rng):
        with pytest.raises(ValueError):
            make_copy_task(rng, num_samples=4, seq_len=4, shift=4)

    def test_odd_d_model_rejected(self):
        with pytest.raises(ValueError):
            TinyTransformer(d_model=15)


def _gradient_passes(name):
    """The model, and ``(run(params, out=None), lead)`` for each gradient
    entry point it offers; ``lead`` is the row axis its gradients carry."""
    workload = build_workload(name, num_samples=32, rng=new_rng(5))
    model, x, y = workload.model, workload.x[:8], workload.y[:8]
    passes = [(lambda params, out=None: model.loss_and_grad(params, x, y, out), ())]
    if hasattr(model, "loss_and_grad_workers"):
        xs, ys = x.reshape(2, 4, *x.shape[1:]), y.reshape(2, 4, *y.shape[1:])
        passes.append(
            (lambda params, out=None: model.loss_and_grad_workers(params, xs, ys, out), (2,))
        )
    return model, passes


@pytest.mark.parametrize("name", MODELS.available())
def test_the_tape_never_writes_into_a_leafs_data(name):
    """Read-only parameters give bit-identical losses and gradients.

    This is what lets parameters reach the tape as views — the blocked
    pass's stride-0 worker axis, the pool's shared parameter buffer.
    """
    model, passes = _gradient_passes(name)
    for run, _ in passes:
        writable = model.init_params(new_rng(6))
        frozen = {key: value.copy() for key, value in writable.items()}
        for value in frozen.values():
            value.flags.writeable = False
        want_loss, want_grads, _ = run(writable)
        loss, grads, _ = run(frozen)
        np.testing.assert_array_equal(loss, want_loss)
        for key in writable:
            np.testing.assert_array_equal(grads[key], want_grads[key])
            np.testing.assert_array_equal(frozen[key], writable[key])


@pytest.mark.parametrize("name", MODELS.available())
def test_gradients_are_computed_in_their_destinations(name):
    """The ``out`` contract of ``TrainableModel``: NaN-prefilled views of
    a flat block (the trainer's buffer) come back fully written and
    bit-equal to the no-destination call — a GEMM that read its ``out``
    or a stale element fails here — each returned gradient *is* its
    destination, and a second call overwrites instead of accumulating."""
    model, passes = _gradient_passes(name)
    params = model.init_params(new_rng(6))
    layout = FlatLayout.of(params)
    for run, lead in passes:
        want_loss, want_grads, _ = run(params)
        block = np.full((*lead, layout.dim), np.nan, dtype=layout.dtype)
        out = layout.views(block)
        for _ in range(2):
            loss, grads, _ = run(params, out)
            np.testing.assert_array_equal(loss, want_loss)
            for key in params:
                assert grads[key] is out[key]  # same data pointer, same strides
                np.testing.assert_array_equal(grads[key], want_grads[key])
            assert not np.isnan(block).any()


@pytest.mark.parametrize("name", MODELS.available())
def test_without_destinations_every_call_allocates_its_own_gradients(name):
    """``out`` omitted and ``out=None`` are the same call: fresh arrays
    each time, equal bytes."""
    model, passes = _gradient_passes(name)
    params = model.init_params(new_rng(6))
    for run, _ in passes:
        (_, first, _), (_, second, _) = run(params), run(params, None)
        for key in params:
            assert not np.shares_memory(first[key], second[key])
            assert not np.shares_memory(first[key], params[key])
            np.testing.assert_array_equal(first[key], second[key])


def test_a_misshapen_destination_is_rejected_before_the_tape_runs():
    model, passes = _gradient_passes("mlp-tiny")
    params = model.init_params(new_rng(6))
    for run, lead in passes:
        out = {"fc0.weight": np.zeros((*lead, *params["fc0.weight"].T.shape))}
        with pytest.raises(ValueError, match="gradient destination of shape") as err:
            run(params, out)
        assert "\n" not in str(err.value)


@pytest.mark.parametrize("name", MODELS.available())
def test_dead_operands_get_no_gradient_and_leaf_gradients_do_not_change(name, monkeypatch):
    """Data batches and constants end ``backward()`` with ``grad is None``;
    the leaf gradients equal those of a tape that computes a gradient for
    every operand (what the tape did before it skipped dead ones)."""
    model, passes = _gradient_passes(name)
    params = model.init_params(new_rng(6))
    init = Tensor.__init__
    for run, _ in passes:
        created = []

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            created.append(self)

        monkeypatch.setattr(Tensor, "__init__", recording)
        _, grads, _ = run(params)
        dead = [t for t in created if not t.requires_grad]
        assert dead and all(t.grad is None for t in dead)

        def all_live(self, data, requires_grad=False, **kwargs):
            init(self, data, True, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", all_live)
        _, want_grads, _ = run(params)
        for key in params:
            np.testing.assert_array_equal(grads[key], want_grads[key])


def test_every_array_on_an_mlp_tape_is_in_the_parameters_dtype(mlp_dtype, monkeypatch):
    """The parameters fix the tape's dtype: every tensor's data and
    gradient (the loss node's included) and the returned gradients,
    through both entry points — although the workload's batches are
    float64."""
    model, passes = _gradient_passes("mlp")
    params = model.init_params(new_rng(6))
    assert {value.dtype for value in params.values()} == {mlp_dtype}
    init = Tensor.__init__
    for run, _ in passes:
        created = []

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            created.append(self)

        monkeypatch.setattr(Tensor, "__init__", recording)
        _, grads, _ = run(params)
        monkeypatch.setattr(Tensor, "__init__", init)
        assert len(created) > 10
        for tensor in created:
            assert tensor.data.dtype == mlp_dtype, tensor
            assert tensor.grad is None or tensor.grad.dtype == mlp_dtype, tensor
        assert {grad.dtype for grad in grads.values()} == {mlp_dtype}


def _predict(model, params, x):
    tensors = {k: Tensor(v) for k, v in params.items()}
    return model.logits(tensors, Tensor(model._batch(params, x))).data.argmax(axis=1)


def test_mlp_predict_and_evaluate_run_in_the_parameters_dtype(rng):
    model = MLPClassifier(input_dim=2, hidden=(4,), num_classes=3)
    params = model.init_params(rng)
    x = rng.normal(size=(10, 2))
    as64 = {name: value.astype(np.float64) for name, value in params.items()}
    # The float64 batch is cast to the float32 params, so the two
    # precisions see the same rounded inputs and agree on easy argmaxes.
    assert (_predict(model, params, x) == _predict(model, as64, x.astype(np.float32))).mean() > 0.8
    assert model.evaluate(params, x, _predict(model, params, x)) == 1.0
