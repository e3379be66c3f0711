"""Straggler/jitter model."""

import numpy as np
import pytest

from repro.cluster.cloud_presets import paper_testbed
from repro.cluster.variability import (
    VariabilityModel,
    expected_slowdown,
    straggled_flat_time,
    straggled_hierarchical_time,
)
from repro.utils.seeding import new_rng


class TestModel:
    def test_factors_at_least_one(self, rng):
        factors = VariabilityModel(sigma=0.3).sample_node_factors(100, rng)
        assert np.all(factors >= 1.0)

    def test_zero_sigma_is_deterministic(self, rng):
        factors = VariabilityModel(sigma=0.0).sample_node_factors(8, rng)
        np.testing.assert_array_equal(factors, np.ones(8))

    def test_more_sigma_more_spread(self):
        low = VariabilityModel(sigma=0.05).sample_node_factors(500, new_rng(0))
        high = VariabilityModel(sigma=0.4).sample_node_factors(500, new_rng(0))
        assert high.max() > low.max()

    def test_validation(self):
        with pytest.raises(ValueError):
            VariabilityModel(sigma=-0.1)
        with pytest.raises(ValueError):
            VariabilityModel().sample_node_factors(0, new_rng(0))


class TestStraggledTimes:
    def test_flat_stretched_by_worst(self):
        factors = np.array([1.0, 1.5, 1.2])
        assert straggled_flat_time(2.0, factors) == pytest.approx(3.0)

    def test_hierarchical_composition(self):
        factors = np.array([1.0, 2.0])
        t = straggled_hierarchical_time(0.5, 0.1, factors)
        assert t == pytest.approx(0.5 * 2.0 + 0.1 * 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            straggled_flat_time(-1.0, np.ones(2))
        with pytest.raises(ValueError):
            straggled_hierarchical_time(-0.1, 0.1, np.ones(2))


class TestExpectedSlowdown:
    def test_more_nodes_means_worse_tail(self):
        # max of more log-normals is larger: the flat scheme degrades
        # with cluster size — one more reason hierarchy wins at scale.
        from repro.cluster.cloud_presets import make_cluster

        small = make_cluster(2, "tencent")
        large = make_cluster(32, "tencent")
        flat_small, _ = expected_slowdown(small, 0.5, sigma=0.2, trials=300)
        flat_large, _ = expected_slowdown(large, 0.5, sigma=0.2, trials=300)
        assert flat_large > flat_small

    def test_stretch_grows_with_sigma(self):
        # HiTopKComm's inter-node share at the paper's training density,
        # under increasing per-node jitter on the 16-node testbed.
        from repro.comm.hitopkcomm import HiTopKComm

        net = paper_testbed()
        inter = HiTopKComm(net, density=0.001).time_model(25_000_000)
        stretches = [
            expected_slowdown(net, inter.fraction("inter_allgather"), sigma=sigma, trials=300, seed=1)
            for sigma in (0.0, 0.05, 0.1, 0.2, 0.4)
        ]
        assert stretches[0] == (1.0, 1.0)
        flats = [flat for flat, _ in stretches]
        assert flats == sorted(flats)

    def test_schemes_equal_when_fraction_one(self):
        net = paper_testbed()
        flat, hier = expected_slowdown(net, 1.0, sigma=0.2, trials=100)
        assert flat == pytest.approx(hier)

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            expected_slowdown(paper_testbed(), 1.5)
