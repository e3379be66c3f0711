"""HiTopKComm (Algorithm 2) — functional semantics and cost structure."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cloud_presets import make_cluster
from repro.comm.hitopkcomm import (
    HiTopKComm,
    STEP_INTER_ALLGATHER,
    STEP_INTRA_ALLGATHER,
    STEP_MSTOPK,
    STEP_REDUCE_SCATTER,
)
from repro.compression.base import density_to_k
from repro.compression.exact_topk import ExactTopK
from repro.utils.partition import chunk_bounds
from tests.collectives.list_collectives import reference_reduce_scatter
from tests.conftest import make_worker_grads


class TestFunctionalSemantics:
    def test_every_rank_receives_one_read_only_aggregate(self, small_cluster, rng):
        scheme = HiTopKComm(small_cluster, density=0.1)
        result = scheme.aggregate(make_worker_grads(rng, 8, 120), rng=rng)
        assert result.aggregate.shape == (120,)
        with pytest.raises(ValueError, match="read-only"):
            result.aggregate[0] = 1.0

    def test_density_one_equals_dense_sum(self, small_cluster, rng):
        # With ρ = 1 nothing is dropped: Algorithm 2 reduces to a
        # hierarchical dense all-reduce.
        scheme = HiTopKComm(small_cluster, density=1.0, error_feedback=False)
        grads = make_worker_grads(rng, 8, 64)
        result = scheme.aggregate(grads, rng=rng)
        np.testing.assert_allclose(
            result.aggregate, np.sum(grads, axis=0), rtol=1e-10
        )

    def test_equals_manual_algorithm2(self, tiny_cluster, rng):
        """Step-by-step re-derivation with exact top-k (deterministic)."""
        m, n = 2, 2
        d = 40
        density = 0.2
        scheme = HiTopKComm(
            tiny_cluster,
            density=density,
            compressor=ExactTopK(),
            error_feedback=False,
        )
        grads = make_worker_grads(rng, m * n, d)
        result = scheme.aggregate(grads)

        # Manual: per node reduce-scatter, per-shard exact top-k,
        # cross-node accumulate, concatenate.
        bounds = chunk_bounds(d, n)
        expected = np.zeros(d)
        for node in range(m):
            shards = reference_reduce_scatter(grads[node * n : (node + 1) * n])
            for local, shard in enumerate(shards):
                k = density_to_k(shard.size, density)
                sv = ExactTopK().select(shard, k)
                start, _ = bounds[local]
                np.add.at(expected, sv.indices + start, sv.values)
        np.testing.assert_allclose(result.aggregate, expected, rtol=1e-10)

    def test_nnz_bounded_by_rho_d_m(self, small_cluster, rng):
        # Accumulated non-zeros per shard ≤ m * k̃ -> total ≤ ~ρ d m.
        d, density = 400, 0.05
        scheme = HiTopKComm(small_cluster, density=density, error_feedback=False)
        grads = make_worker_grads(rng, 8, d)
        result = scheme.aggregate(grads, rng=rng)
        m = small_cluster.num_nodes
        n = small_cluster.gpus_per_node
        k_tilde = density_to_k(d // n, density)
        assert np.count_nonzero(result.aggregate) <= m * n * k_tilde

    @given(
        m=st.integers(1, 3),
        n=st.integers(1, 4),
        d=st.integers(8, 120),
        seed=st.integers(0, 20),
    )
    @settings(max_examples=30, deadline=None)
    def test_shapes_and_identity_hold_for_any_topology(self, m, n, d, seed):
        rng = np.random.default_rng(seed)
        net = make_cluster(m, "tencent", gpus_per_node=n)
        scheme = HiTopKComm(net, density=0.25, error_feedback=False)
        result = scheme.aggregate(rng.normal(size=(m * n, d)), rng=rng)
        assert result.aggregate.shape == (d,)


class TestErrorFeedback:
    def test_shard_residuals_created_per_rank(self, small_cluster, rng):
        scheme = HiTopKComm(small_cluster, density=0.1)
        grads = make_worker_grads(rng, 8, 100)
        scheme.aggregate(grads, rng=rng)
        assert scheme.ef is not None
        assert len(scheme.ef) == 8
        # Residual shapes match the owner's shard size (d/n each).
        bounds = chunk_bounds(100, small_cluster.gpus_per_node)
        for rank in range(8):
            local = small_cluster.topology.local_rank_of(rank)
            start, end = bounds[local]
            assert scheme.ef.residual(rank).size == end - start

    def test_residual_reinjected_next_round(self, small_cluster, rng):
        # A coordinate dropped in round 1 must influence round 2: feed a
        # gradient with one huge coordinate plus noise; with EF the big
        # coordinate survives even if a first tiny-k round missed it.
        scheme = HiTopKComm(small_cluster, density=0.02)
        d = 200
        base = np.zeros(d)
        base[137] = 0.5  # below round-1 selection at this density? maybe
        grads = np.stack([base + 0.001 * rng.normal(size=d) for _ in range(8)])
        total = np.zeros(d)
        for _ in range(6):
            result = scheme.aggregate(grads, rng=rng)
            total += result.aggregate
        # After several rounds EF must have pushed coordinate 137 through.
        assert total[137] > 0.5

    def test_ef_disabled_keeps_no_state(self, small_cluster, rng):
        scheme = HiTopKComm(small_cluster, density=0.1, error_feedback=False)
        scheme.aggregate(make_worker_grads(rng, 8, 64), rng=rng)
        assert scheme.ef is None


class TestBufferOwnership:
    """The scheme writes its node accumulator and residuals in place;
    nothing it returns or was handed may change under a later call."""

    @pytest.mark.parametrize("ef", [True, False])
    def test_a_result_survives_the_next_aggregate(self, small_cluster, rng, ef):
        scheme = HiTopKComm(small_cluster, density=0.1, error_feedback=ef)
        first = scheme.aggregate(make_worker_grads(rng, 8, 203), rng=rng)
        output = first.aggregate.copy()
        selections = {
            rank: (sv.values.copy(), sv.indices.copy())
            for rank, sv in first.extras["selections"].items()
        }
        scheme.aggregate(make_worker_grads(rng, 8, 203), rng=rng)
        assert first.aggregate.tobytes() == output.tobytes()
        for rank, sv in first.extras["selections"].items():
            values, indices = selections[rank]
            assert sv.values.tobytes() == values.tobytes()
            np.testing.assert_array_equal(sv.indices, indices)

    @pytest.mark.parametrize("ef", [True, False])
    def test_the_callers_gradients_are_never_written(self, small_cluster, rng, ef):
        scheme = HiTopKComm(small_cluster, density=0.1, error_feedback=ef)
        for _ in range(3):
            grads = make_worker_grads(rng, 8, 150)
            kept = grads.tobytes()
            scheme.aggregate(grads, rng=rng)
            assert grads.tobytes() == kept

    def test_buffers_are_reused_while_the_shape_holds(self, small_cluster, rng):
        scheme = HiTopKComm(small_cluster, density=0.1)
        scheme.aggregate(make_worker_grads(rng, 8, 120), rng=rng)
        residuals = [scheme.ef.residual(rank) for rank in range(8)]
        scheme.aggregate(make_worker_grads(rng, 8, 120), rng=rng)
        assert all(scheme.ef.residual(r) is buf for r, buf in enumerate(residuals))
        grads = make_worker_grads(rng, 8, 120).astype(np.float32)
        scheme.ef.replace({})
        out = scheme.aggregate(grads, rng=rng).aggregate
        assert out.dtype == np.float32 == scheme.ef.residual(0).dtype

    def test_a_warm_aggregate_at_the_train_comm_shape_allocates_only_its_result(self):
        """2 nodes x 8 GPUs, d = 304 144, float32, ρ = 0.01.  Once warm, the
        only block of one shard's size or more that a call leaves alive is
        the aggregate it returns, and at no moment does it hold more than
        the aggregate plus two shards (the selection's ``|x|`` and its
        small index arrays; the scatter's pairs)."""
        scheme = HiTopKComm(make_cluster(2, "tencent", gpus_per_node=8), density=0.01)
        rng = np.random.default_rng(0)
        d = 304_144
        mat = rng.standard_normal((16, d)).astype(np.float32)
        shard_bytes = d // 8 * 4
        for _ in range(2):
            scheme.aggregate(mat, rng=rng)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = scheme.aggregate(mat, rng=rng)
            live = tracemalloc.take_snapshot()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        aggregate = result.aggregate
        assert sorted(t.size for t in live.traces if t.size >= shard_bytes) == [aggregate.nbytes]
        assert peak < aggregate.nbytes + 2 * shard_bytes


class TestCostModel:
    def test_breakdown_has_four_steps(self, testbed):
        breakdown = HiTopKComm(testbed, density=0.01).time_model(25_000_000)
        assert list(breakdown.steps) == [
            STEP_REDUCE_SCATTER,
            STEP_MSTOPK,
            STEP_INTER_ALLGATHER,
            STEP_INTRA_ALLGATHER,
        ]

    def test_inter_allgather_dominates_at_paper_scale(self, testbed):
        # Fig. 8: "the most time-consuming part is the
        # inter-communication with the All-Gather operation".
        for d in (25_000_000, 110_000_000):
            breakdown = HiTopKComm(testbed, density=0.01).time_model(d)
            inter = breakdown.get(STEP_INTER_ALLGATHER)
            assert inter == max(breakdown.steps.values())

    def test_mstopk_step_negligible(self, testbed):
        breakdown = HiTopKComm(testbed, density=0.01).time_model(25_000_000)
        assert breakdown.fraction(STEP_MSTOPK) < 0.15

    def test_inter_step_linear_in_density(self, testbed):
        d = 50_000_000
        low = HiTopKComm(testbed, density=0.001).time_model(d)
        high = HiTopKComm(testbed, density=0.01).time_model(d)
        assert high.get(STEP_INTER_ALLGATHER) > 5 * low.get(STEP_INTER_ALLGATHER)

    def test_beats_dense_at_paper_settings(self, testbed):
        from repro.comm.dense import Torus2DAllReduce

        d = 100_000_000
        sparse = HiTopKComm(
            testbed, density=0.01, value_bytes=2, dense_wire_bytes=2
        ).time_model(d).total
        dense = Torus2DAllReduce(testbed, wire_bytes=2).time_model(d).total
        assert sparse < dense / 2

    def test_density_sweep_monotone_and_far_below_dense(self, testbed):
        # The cost curve the paper's ρ = 0.001 (training) and 0.01
        # (microbenchmarks) sit on, for ResNet-50's d = 25M.
        from repro.comm.dense import Torus2DAllReduce

        d = 25_000_000
        times = [
            HiTopKComm(testbed, density=rho, value_bytes=2, dense_wire_bytes=2).time_model(d).total
            for rho in (0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1)
        ]
        assert times == sorted(times)
        dense = Torus2DAllReduce(testbed, wire_bytes=2).time_model(d).total
        assert dense / times[1] > 2.0

    def test_hierarchy_and_operator_each_pay(self, testbed):
        # Separates HiTopKComm's two ingredients at d = 25M, ρ = 0.001:
        # flat All-Gather vs the hierarchy, exact top-k vs MSTopK on
        # each GPU's 1/n shard.
        from repro.cluster.gpu import exact_topk_gpu_time, mstopk_gpu_time
        from repro.comm.naive_allgather import NaiveAllGather

        d, rho = 25_000_000, 0.001
        shard = d // testbed.gpus_per_node
        flat = NaiveAllGather(testbed, density=rho).time_model(d).total
        hier = HiTopKComm(testbed, density=rho).time_model(d)
        hier_comm = hier.total - hier.get(STEP_MSTOPK)
        paper = hier_comm + mstopk_gpu_time(shard)
        assert paper < flat + mstopk_gpu_time(d)  # operator only
        assert paper < hier_comm + exact_topk_gpu_time(shard)  # hierarchy only
        assert paper < (flat + exact_topk_gpu_time(d)) / 3  # TopK-SGD

    def test_gap_to_naiveag_widens_with_nodes(self):
        # NaiveAG's volume grows with every GPU (P = 8m), HiTopKComm's
        # inter step only with the node count scaled by ρ.
        from repro.comm.naive_allgather import NaiveAllGather

        d, rho = 25_000_000, 0.01
        naive, hitopk = {}, {}
        for m in (2, 32):
            net = make_cluster(m, "tencent")
            naive[m] = NaiveAllGather(net, density=rho, value_bytes=2).time_model(d).total
            hitopk[m] = HiTopKComm(net, density=rho, value_bytes=2, dense_wire_bytes=2).time_model(d).total
        assert naive[32] / naive[2] > 8
        assert hitopk[32] / hitopk[2] < naive[32] / naive[2] / 2
        assert naive[32] / hitopk[32] > naive[2] / hitopk[2]

    def test_density_validation(self, small_cluster):
        with pytest.raises(ValueError):
            HiTopKComm(small_cluster, density=0.0)
        with pytest.raises(ValueError):
            HiTopKComm(small_cluster, density=1.5)
