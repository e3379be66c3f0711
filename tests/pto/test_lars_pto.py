"""PTO-LARS: equality with the serial computation."""

import numpy as np
import pytest

from repro.optim.lars import lars_coefficients
from repro.pto.lars_pto import lars_learning_rates_pto


@pytest.fixture
def layers(rng):
    sizes = (8, 20, 4, 16, 30, 2, 12, 6, 10, 24)
    weights = [rng.normal(size=s) for s in sizes]
    grads = [rng.normal(size=s) for s in sizes]
    return weights, grads


class TestLarsPTO:
    def test_equals_serial_lars(self, small_cluster, layers):
        weights, grads = layers
        serial = lars_coefficients(weights, grads, eta=0.1)
        result = lars_learning_rates_pto(small_cluster, weights, grads, eta=0.1)
        np.testing.assert_allclose(result.result, serial)

    def test_respects_hyperparameters(self, small_cluster, layers):
        weights, grads = layers
        a = lars_learning_rates_pto(
            small_cluster, weights, grads, eta=0.1, trust_coefficient=0.01
        ).result
        b = lars_learning_rates_pto(
            small_cluster, weights, grads, eta=0.1, trust_coefficient=0.001
        ).result
        np.testing.assert_allclose(a, 10 * b)

    def test_resnet_shape_assignment(self, testbed, rng):
        # 161 layers over 128 GPUs, like the paper's example.
        weights = [rng.normal(size=4) for _ in range(161)]
        grads = [rng.normal(size=4) for _ in range(161)]
        result = lars_learning_rates_pto(testbed, weights, grads, eta=0.1)
        assert result.result.size == 161
        counts = [len(a) for a in result.assignment]
        assert sum(counts) == 161
        assert max(counts) == 2  # first GPUs take 2 layers

    def test_length_mismatch(self, small_cluster, rng):
        with pytest.raises(ValueError):
            lars_learning_rates_pto(
                small_cluster, [rng.normal(size=3)], [], eta=0.1
            )

    def test_balanced_variant_same_values(self, small_cluster, layers):
        weights, grads = layers
        a = lars_learning_rates_pto(small_cluster, weights, grads, eta=0.1).result
        b = lars_learning_rates_pto(
            small_cluster, weights, grads, eta=0.1, balanced=True
        ).result
        np.testing.assert_allclose(a, b)

