"""TinyResNet: residual blocks through the autodiff tape."""

import numpy as np
import pytest

from repro.models.autodiff import Tensor
from repro.models.nn.resnet_tiny import TinyResNet
from repro.optim.sgd import SGD
from repro.train.synthetic import make_synthetic_images
from repro.utils.seeding import new_rng


class TestForward:
    def test_logit_shape(self, rng):
        model = TinyResNet(width=4, num_classes=5, image_size=8)
        params = {k: Tensor(v) for k, v in model.init_params(rng).items()}
        x = Tensor(rng.normal(size=(3, 3, 8, 8)))
        assert model.logits(params, x).data.shape == (3, 5)

    def test_residual_identity_at_zero_weights(self, rng):
        # With zero block weights the blocks are relu(identity): the
        # network reduces to stem + head (skip connections pass through).
        model = TinyResNet(width=4, num_classes=3, image_size=8)
        params = model.init_params(rng)
        for name in params:
            if "block" in name:
                params[name] = np.zeros_like(params[name])
        t = {k: Tensor(v) for k, v in params.items()}
        x = Tensor(np.abs(rng.normal(size=(2, 3, 8, 8))))
        out = model.logits(t, x)
        assert np.isfinite(out.data).all()

    def test_gradients_flow_through_skip(self, rng):
        model = TinyResNet(width=4, num_classes=3, image_size=8)
        params = model.init_params(rng)
        x, y = make_synthetic_images(6, num_classes=3, image_size=8, rng=rng)
        _, grads, _ = model.loss_and_grad(params, x, y)
        for name, g in grads.items():
            assert g is not None and np.isfinite(g).all(), name
            # Every layer receives signal (residual nets don't dead-end).
            assert np.abs(g).max() > 0, name


#: Every parameter of the gradient-check model, stem to head.
PARAMS = [
    "stem.weight",
    "block1.conv1.weight",
    "block1.conv2.weight",
    "block2.conv1.weight",
    "block2.conv2.weight",
    "fc.weight",
    "fc.bias",
]


class TestGradient:
    """``loss_and_grad`` against central differences of its own loss, in
    float64 on a tiny shape, for every parameter."""

    @pytest.fixture
    def case(self):
        rng = new_rng(11)
        model = TinyResNet(in_channels=2, width=2, num_classes=3, image_size=6)
        params = model.init_params(rng)
        x, y = make_synthetic_images(4, num_classes=3, image_size=6, channels=2, rng=rng)
        return model, params, x, y

    @staticmethod
    def central_differences(model, params, x, y, name, eps):
        value, numerical = params[name], np.zeros_like(params[name])
        for i in np.ndindex(value.shape):
            orig = value[i]
            value[i] = orig + eps
            up = model.loss_and_grad(params, x, y)[0]
            value[i] = orig - eps
            down = model.loss_and_grad(params, x, y)[0]
            value[i] = orig
            numerical[i] = (up - down) / (2 * eps)
        return numerical

    @pytest.mark.parametrize("name", PARAMS)
    def test_gradient_equals_central_differences(self, case, name):
        model, params, x, y = case
        _, grads, _ = model.loss_and_grad(params, x, y)
        assert set(grads) == set(PARAMS)
        numerical = self.central_differences(model, params, x, y, name, 1e-6)
        np.testing.assert_allclose(grads[name], numerical, rtol=1e-5, atol=1e-8)

    def test_negative_control_a_coarse_eps_fails_the_gradient_check(self, case):
        """Central differences are only an oracle at a fine ``eps``: at 0.5
        the same comparison must fail, or it would pass anything."""
        model, params, x, y = case
        _, grads, _ = model.loss_and_grad(params, x, y)
        coarse = self.central_differences(model, params, x, y, "stem.weight", 0.5)
        with pytest.raises(AssertionError):
            np.testing.assert_allclose(grads["stem.weight"], coarse, rtol=1e-5, atol=1e-8)


class TestEvaluate:
    @pytest.fixture
    def setup(self, rng):
        model = TinyResNet(width=4, num_classes=5, image_size=8)
        params = model.init_params(rng)
        x, y = make_synthetic_images(20, num_classes=5, image_size=8, rng=rng)
        logits = model.logits({k: Tensor(v) for k, v in params.items()}, Tensor(x)).data
        return model, params, x, y, logits

    def test_top1_is_argmax_accuracy(self, setup):
        model, params, x, y, logits = setup
        assert model.evaluate(params, x, y) == np.mean(logits.argmax(axis=1) == y)

    def test_topk_counts_the_label_anywhere_in_the_k_best(self, setup):
        model, params, x, y, logits = setup
        rank_of_label = (logits > logits[np.arange(len(y)), y][:, None]).sum(axis=1)
        for k in (2, 3):
            assert model.evaluate(params, x, y, topk=k) == np.mean(rank_of_label < k)

    def test_accuracy_grows_with_k_and_saturates_at_the_class_count(self, setup):
        model, params, x, y, _ = setup
        scores = [model.evaluate(params, x, y, topk=k) for k in range(1, 8)]
        assert scores == sorted(scores)
        assert scores[4:] == [1.0, 1.0, 1.0]  # k >= 5 classes covers every label

    def test_the_registered_workload_scores_with_it(self):
        from repro.api.registry import build_workload

        workload = build_workload("resnet", num_samples=16, rng=new_rng(2))
        params = workload.model.init_params(new_rng(3))
        score = workload.evaluate(params, workload.x, workload.y)
        assert score == workload.model.evaluate(params, workload.x, workload.y, topk=1)
        assert 0.0 <= score <= 1.0

class TestTraining:
    def test_learns_pattern_task(self, rng):
        x, y = make_synthetic_images(
            160, num_classes=3, image_size=8, noise=0.8, rng=rng
        )
        model = TinyResNet(width=6, num_classes=3, image_size=8)
        params = model.init_params(rng)
        opt = SGD(lr=0.1, momentum=0.9)
        first_loss = None
        loss = None
        steps_rng = new_rng(0)
        for _ in range(40):
            idx = steps_rng.choice(len(x), size=32, replace=False)
            loss, grads, _ = model.loss_and_grad(params, x[idx], y[idx])
            if first_loss is None:
                first_loss = loss
            opt.step(params, grads)
        assert loss < first_loss

    def test_distributed_training_with_mstopk(self, rng):
        from repro.cluster.cloud_presets import make_cluster
        from repro.api import build_scheme
        from repro.train.trainer import DistributedTrainer

        x, y = make_synthetic_images(256, num_classes=3, image_size=8, rng=rng)
        net = make_cluster(2, "tencent", gpus_per_node=2)
        model = TinyResNet(width=4, num_classes=3, image_size=8)
        trainer = DistributedTrainer(
            model, build_scheme("mstopk", net, density=0.1),
            optimizer=SGD(lr=0.1), seed=0,
        )
        report = trainer.train(x, y, epochs=4, local_batch=8)
        assert report.epoch_losses[-1] < report.epoch_losses[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            TinyResNet(width=0)
