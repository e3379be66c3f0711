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
