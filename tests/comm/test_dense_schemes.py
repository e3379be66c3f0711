"""Dense aggregation schemes: exactness and cost-model shape."""

import numpy as np
import pytest

from repro.comm.dense import RingAllReduce, Torus2DAllReduce, TreeAllReduce
from tests.conftest import make_worker_grads


@pytest.fixture(params=[RingAllReduce, TreeAllReduce, Torus2DAllReduce])
def dense_scheme(request, small_cluster):
    return request.param(small_cluster)


class TestFunctionalExactness:
    def test_aggregate_equals_global_sum(self, dense_scheme, rng):
        grads = make_worker_grads(rng, dense_scheme.topology.world_size, 77)
        result = dense_scheme.aggregate(grads)
        np.testing.assert_allclose(result.aggregate, np.sum(grads, axis=0), rtol=1e-10)

    def test_world_size_validation(self, dense_scheme, rng):
        with pytest.raises(ValueError):
            dense_scheme.aggregate(make_worker_grads(rng, 3, 10))

    def test_a_list_of_rank_gradients_is_refused(self, dense_scheme, rng):
        grads = list(make_worker_grads(rng, dense_scheme.topology.world_size, 10))
        grads[-1] = rng.normal(size=11)
        with pytest.raises(ValueError, match="gradient matrix, got list"):
            dense_scheme.aggregate(grads)

    def test_breakdown_positive(self, dense_scheme, rng):
        grads = make_worker_grads(rng, dense_scheme.topology.world_size, 50)
        result = dense_scheme.aggregate(grads)
        assert result.time > 0
        assert result.inter_bytes > 0


class TestCostShape:
    """Fig. 7's dense-scheme ordering on the paper testbed."""

    def test_2dtar_beats_tree_at_scale(self, testbed):
        d = 100_000_000
        tree = TreeAllReduce(testbed, wire_bytes=2).time_model(d).total
        torus = Torus2DAllReduce(testbed, wire_bytes=2).time_model(d).total
        assert torus < tree

    def test_tree_beats_flat_ring_on_latency(self, testbed):
        # At tiny sizes the flat ring's 2(P-1) latency terms dominate.
        d = 1_000
        ring = RingAllReduce(testbed, wire_bytes=2).time_model(d).total
        tree = TreeAllReduce(testbed, wire_bytes=2).time_model(d).total
        assert tree < ring

    def test_costs_scale_linearly_at_large_d(self, testbed):
        scheme = Torus2DAllReduce(testbed, wire_bytes=2)
        t1 = scheme.time_model(50_000_000).total
        t2 = scheme.time_model(100_000_000).total
        assert t2 == pytest.approx(2 * t1, rel=0.1)

    def test_2dtar_breakdown_has_three_phases(self, testbed):
        breakdown = Torus2DAllReduce(testbed).time_model(10_000_000)
        assert set(breakdown.steps) == {
            "reduce_scatter",
            "inter_allreduce",
            "intra_allgather",
        }

    def test_2dtar_inter_phase_dominates(self, testbed):
        breakdown = Torus2DAllReduce(testbed).time_model(50_000_000)
        assert breakdown.fraction("inter_allreduce") > 0.5

    def test_fp16_halves_bandwidth_term(self, testbed):
        d = 100_000_000
        fp32 = Torus2DAllReduce(testbed, wire_bytes=4).time_model(d).total
        fp16 = Torus2DAllReduce(testbed, wire_bytes=2).time_model(d).total
        assert fp16 == pytest.approx(fp32 / 2, rel=0.05)
