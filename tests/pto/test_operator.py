"""Generic parallel tensor operator (paper §4.2, Eqs. 12-14)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cloud_presets import make_cluster, paper_testbed
from repro.pto.operator import ParallelTensorOperator, PTOCostModel


def norm_op(layer):
    return float(np.linalg.norm(layer))


def run_serial(op, layers):
    """Reference execution: every layer computed in order (Eq. 12)."""
    return np.asarray([np.asarray(op(layer)) for layer in layers]).ravel()


class TestFunctionalEquality:
    def test_equals_serial(self, small_cluster, rng):
        layers = [rng.normal(size=s) for s in (3, 10, 7, 1, 20, 5, 8, 2, 9)]
        pto = ParallelTensorOperator(small_cluster, norm_op)
        serial = run_serial(norm_op, layers)
        result = pto.run(layers, layer_sizes=[a.size for a in layers])
        np.testing.assert_allclose(result.result, serial)

    def test_all_workers_get_identical_output(self, small_cluster, rng):
        layers = [rng.normal(size=4) for _ in range(10)]
        result = ParallelTensorOperator(small_cluster, norm_op).run(layers)
        for out in result.outputs[1:]:
            np.testing.assert_array_equal(out, result.outputs[0])

    @given(
        n_layers=st.integers(1, 40),
        m=st.integers(1, 4),
        n=st.integers(1, 4),
        seed=st.integers(0, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_equality_any_topology(self, n_layers, m, n, seed):
        rng = np.random.default_rng(seed)
        net = make_cluster(m, "tencent", gpus_per_node=n)
        layers = [rng.normal(size=rng.integers(1, 16)) for _ in range(n_layers)]
        pto = ParallelTensorOperator(net, norm_op)
        np.testing.assert_allclose(
            pto.run(layers, layer_sizes=[a.size for a in layers]).result,
            run_serial(norm_op, layers),
        )

    def test_balanced_assignment_same_result(self, small_cluster, rng):
        layers = [rng.normal(size=s) for s in (100, 1, 1, 100, 1, 1)]
        contiguous = ParallelTensorOperator(small_cluster, norm_op).run(
            layers, layer_sizes=[a.size for a in layers]
        )
        balanced = ParallelTensorOperator(small_cluster, norm_op, balanced=True).run(
            layers, layer_sizes=[a.size for a in layers]
        )
        np.testing.assert_allclose(balanced.result, contiguous.result)

    def test_more_workers_than_layers(self, rng):
        net = make_cluster(4, "tencent", gpus_per_node=8)  # 32 workers
        layers = [rng.normal(size=3) for _ in range(5)]
        result = ParallelTensorOperator(net, norm_op).run(layers)
        assert result.result.size == 5

    def test_layer_sizes_mismatch(self, small_cluster, rng):
        pto = ParallelTensorOperator(small_cluster, norm_op)
        with pytest.raises(ValueError):
            pto.run([rng.normal(size=3)], layer_sizes=[3, 4])


class TestCostModel:
    def test_pto_wins_on_paper_profiles(self):
        # §5.4: PTO accelerates LARS on the 128-GPU testbed.
        net = paper_testbed()
        cost = PTOCostModel()
        sizes = [100_000] * 161
        assert cost.pto_time(sizes, net) < cost.serial_time(sizes)
        assert 1.2 < cost.speedup(sizes, net) < 4.0

    def test_pto_loses_on_single_worker(self):
        net = make_cluster(1, "tencent", gpus_per_node=1)
        cost = PTOCostModel()
        sizes = [1000] * 50
        # One worker: same compute, extra gather overhead.
        assert cost.pto_time(sizes, net) > cost.serial_time(sizes)

    def test_serial_time_scales_with_layers(self):
        cost = PTOCostModel()
        assert cost.serial_time([100] * 200) > cost.serial_time([100] * 100)

    def test_pto_compute_phase_shrinks_with_workers(self):
        cost = PTOCostModel()
        sizes = [1000] * 128
        small = make_cluster(2, "tencent", gpus_per_node=4)
        large = paper_testbed()
        assert cost.pto_time(sizes, large) < cost.pto_time(sizes, small)
