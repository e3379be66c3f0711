"""Momentum SGD update rule."""

import numpy as np
import pytest

from repro.optim.sgd import SGD


class TestVanilla:
    def test_plain_sgd_step(self):
        opt = SGD(lr=0.1, momentum=0.0)
        params = {"w": np.array([1.0, 2.0])}
        opt.step(params, {"w": np.array([1.0, -1.0])})
        np.testing.assert_allclose(params["w"], [0.9, 2.1])

    def test_lr_override(self):
        opt = SGD(lr=0.1, momentum=0.0)
        params = {"w": np.array([1.0])}
        opt.step(params, {"w": np.array([1.0])}, lr=0.5)
        np.testing.assert_allclose(params["w"], [0.5])

    def test_weight_decay(self):
        opt = SGD(lr=0.1, momentum=0.0, weight_decay=0.1)
        params = {"w": np.array([1.0])}
        opt.step(params, {"w": np.array([0.0])})
        np.testing.assert_allclose(params["w"], [1.0 - 0.1 * 0.1])


class TestMomentum:
    def test_velocity_accumulates(self):
        opt = SGD(lr=1.0, momentum=0.5)
        params = {"w": np.array([0.0])}
        g = {"w": np.array([1.0])}
        opt.step(params, g)  # v=1, w=-1
        np.testing.assert_allclose(params["w"], [-1.0])
        opt.step(params, g)  # v=1.5, w=-2.5
        np.testing.assert_allclose(params["w"], [-2.5])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    def test_in_place_velocity_keeps_the_allocating_bits(self, dtype, weight_decay):
        # The velocity is updated in its buffer; the values are those of
        # ``v = μ v + g`` with fresh arrays, bit for bit, in either dtype.
        mu, lr = 0.9, 0.05
        opt = SGD(lr=lr, momentum=mu, weight_decay=weight_decay)
        rng = np.random.default_rng(4)
        params = {"w": rng.standard_normal(257).astype(dtype)}
        w, v = params["w"].copy(), np.zeros_like(params["w"])
        for _ in range(5):
            g = rng.standard_normal(257).astype(dtype)
            opt.step(params, {"w": g})
            if weight_decay:
                g = g + weight_decay * w
            v = mu * v + g
            w -= lr * v
            assert params["w"].tobytes() == w.tobytes()
            assert opt._velocity["w"].tobytes() == v.tobytes()
            assert opt._velocity["w"].dtype == dtype


class TestValidation:
    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            SGD(lr=0.0)
        with pytest.raises(ValueError):
            SGD(momentum=1.0)
        with pytest.raises(ValueError):
            SGD(weight_decay=-1)

    def test_missing_gradient(self):
        opt = SGD()
        with pytest.raises(KeyError):
            opt.step({"w": np.zeros(2)}, {})

    def test_shape_mismatch(self):
        opt = SGD()
        with pytest.raises(ValueError):
            opt.step({"w": np.zeros(2)}, {"w": np.zeros(3)})

    def test_converges_on_quadratic(self):
        # Minimise ||w||^2 / 2: gradient = w.
        opt = SGD(lr=0.1, momentum=0.9)
        params = {"w": np.array([5.0, -3.0])}
        for _ in range(200):
            opt.step(params, {"w": params["w"].copy()})
        assert np.linalg.norm(params["w"]) < 1e-3
