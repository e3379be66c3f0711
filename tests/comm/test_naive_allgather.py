"""NaiveAG — the flat sparse baseline."""

import numpy as np
import pytest

from repro.comm.naive_allgather import NaiveAllGather
from repro.compression.mstopk import MSTopK
from tests.conftest import make_worker_grads


class TestFunctional:
    def test_residuals_are_rewritten_in_their_own_buffers(self, small_cluster, rng):
        scheme = NaiveAllGather(small_cluster, density=0.1)
        scheme.aggregate(make_worker_grads(rng, 8, 100), rng=rng)
        residuals = [scheme.ef.residual(rank) for rank in range(8)]
        assert all(buf.base is None for buf in residuals)  # not rows of one matrix
        scheme.aggregate(make_worker_grads(rng, 8, 100), rng=rng)
        assert all(scheme.ef.residual(r) is buf for r, buf in enumerate(residuals))

    def test_output_is_sum_of_selections(self, small_cluster, rng):
        scheme = NaiveAllGather(small_cluster, density=0.1, error_feedback=False)
        grads = make_worker_grads(rng, 8, 100)
        result = scheme.aggregate(grads, rng=rng)
        expected = np.sum([s.to_dense() for s in result.extras["selections"]], axis=0)
        np.testing.assert_allclose(result.aggregate, expected)

    def test_density_one_equals_dense_sum(self, small_cluster, rng):
        scheme = NaiveAllGather(small_cluster, density=1.0, error_feedback=False)
        grads = make_worker_grads(rng, 8, 40)
        result = scheme.aggregate(grads, rng=rng)
        np.testing.assert_allclose(result.aggregate, np.sum(grads, axis=0))

    def test_nnz_bounded_by_world_k(self, small_cluster, rng):
        scheme = NaiveAllGather(small_cluster, density=0.05, error_feedback=False)
        grads = make_worker_grads(rng, 8, 200)
        result = scheme.aggregate(grads, rng=rng)
        k = result.extras["k"]
        assert np.count_nonzero(result.aggregate) <= 8 * k

    def test_error_feedback_mass_conservation(self, small_cluster, rng):
        # Over iterations, transmitted + residual == all gradients, per worker.
        scheme = NaiveAllGather(small_cluster, density=0.1, error_feedback=True)
        d = 60
        totals = [np.zeros(d) for _ in range(8)]
        sent_totals = [np.zeros(d) for _ in range(8)]
        for _ in range(5):
            grads = make_worker_grads(rng, 8, d)
            result = scheme.aggregate(grads, rng=rng)
            for w in range(8):
                totals[w] += grads[w]
                sent_totals[w] += result.extras["selections"][w].to_dense()
        for w in range(8):
            np.testing.assert_allclose(
                sent_totals[w] + scheme.ef.residual(w), totals[w], atol=1e-9
            )

    def test_custom_compressor(self, small_cluster, rng):
        scheme = NaiveAllGather(
            small_cluster, density=0.1, compressor=MSTopK(), error_feedback=False
        )
        grads = make_worker_grads(rng, 8, 100)
        result = scheme.aggregate(grads, rng=rng)
        assert np.count_nonzero(result.aggregate) > 0


class TestCostModel:
    def test_grows_with_world_size(self, small_cluster, testbed):
        d = 10_000_000
        small = NaiveAllGather(small_cluster, density=0.01).time_model(d).total
        large = NaiveAllGather(testbed, density=0.01).time_model(d).total
        assert large > small

    def test_linear_in_density(self, testbed):
        d = 50_000_000
        low = NaiveAllGather(testbed, density=0.001).time_model(d).total
        high = NaiveAllGather(testbed, density=0.01).time_model(d).total
        assert high > 5 * low

    def test_validation(self, small_cluster):
        with pytest.raises(ValueError):
            NaiveAllGather(small_cluster, density=0.0)
