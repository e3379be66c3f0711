"""gTop-k global top-k aggregation (extension baseline)."""

import numpy as np
import pytest

from repro.collectives.sparse import SparseVector
from repro.comm.gtopk import GlobalTopK, merge_topk
from repro.compression.exact_topk import topk_argpartition
from tests.conftest import make_worker_grads


class TestMergeTopK:
    def test_keeps_global_top(self):
        a = SparseVector(np.array([5.0, 1.0]), np.array([0, 1]), 6)
        b = SparseVector(np.array([4.0, 0.5]), np.array([2, 3]), 6)
        merged = merge_topk(a, b, 2)
        assert merged.nnz == 2
        assert set(merged.indices.tolist()) == {0, 2}

    def test_sums_shared_indices(self):
        a = SparseVector(np.array([1.0]), np.array([3]), 5)
        b = SparseVector(np.array([2.0]), np.array([3]), 5)
        merged = merge_topk(a, b, 1)
        assert merged.indices[0] == 3
        assert merged.values[0] == 3.0

    def test_under_k_union_passes_through(self):
        a = SparseVector(np.array([1.0]), np.array([0]), 5)
        b = SparseVector(np.array([2.0]), np.array([1]), 5)
        merged = merge_topk(a, b, 4)
        assert merged.nnz == 2

    def test_length_mismatch(self):
        a = SparseVector(np.array([1.0]), np.array([0]), 5)
        b = SparseVector(np.array([1.0]), np.array([0]), 6)
        with pytest.raises(ValueError):
            merge_topk(a, b, 1)


class TestGlobalTopK:
    def test_output_has_exactly_k_nonzeros(self, small_cluster, rng):
        scheme = GlobalTopK(small_cluster, density=0.05, error_feedback=False)
        grads = make_worker_grads(rng, 8, 200)
        result = scheme.aggregate(grads, rng=rng)
        k = result.extras["k"]
        assert result.extras["global_nnz"] <= k
        assert np.count_nonzero(result.aggregate) <= k

    def test_the_aggregate_is_the_final_merge_densified(self, small_cluster, rng):
        scheme = GlobalTopK(small_cluster, density=0.05)
        result = scheme.aggregate(make_worker_grads(rng, 8, 100), rng=rng)
        assert result.aggregate.shape == (100,)
        assert np.count_nonzero(result.aggregate) == result.extras["global_nnz"]

    def test_two_workers_equals_direct_merge(self, rng):
        from repro.cluster.cloud_presets import make_cluster

        net = make_cluster(1, "tencent", gpus_per_node=2)
        scheme = GlobalTopK(net, density=0.2, error_feedback=False)
        grads = make_worker_grads(rng, 2, 50)
        result = scheme.aggregate(grads)
        k = result.extras["k"]
        expected = merge_topk(
            topk_argpartition(grads[0], k), topk_argpartition(grads[1], k), k
        ).to_dense()
        np.testing.assert_allclose(result.aggregate, expected)

    def test_global_support_smaller_than_naiveag(self, small_cluster, rng):
        from repro.comm.naive_allgather import NaiveAllGather

        grads = make_worker_grads(rng, 8, 500)
        gtopk = GlobalTopK(small_cluster, density=0.02, error_feedback=False)
        naive = NaiveAllGather(small_cluster, density=0.02, error_feedback=False)
        nnz_g = np.count_nonzero(gtopk.aggregate(grads, rng=rng).aggregate)
        nnz_n = np.count_nonzero(naive.aggregate(grads, rng=rng).aggregate)
        assert nnz_g < nnz_n  # gTop-k keeps k, NaiveAG keeps up to P*k

    def test_trains_with_error_feedback(self, rng):
        # gTop-k must be usable end-to-end through the trainer.
        from repro.cluster.cloud_presets import make_cluster
        from repro.models.nn.mlp import MLPClassifier
        from repro.optim.sgd import SGD
        from repro.train.synthetic import make_spiral_classification
        from repro.train.trainer import DistributedTrainer

        net = make_cluster(2, "tencent", gpus_per_node=2)
        x, y = make_spiral_classification(512, num_classes=4, rng=rng)
        model = MLPClassifier(input_dim=2, hidden=(16,), num_classes=4)
        trainer = DistributedTrainer(
            model, GlobalTopK(net, density=0.1), optimizer=SGD(lr=0.1), seed=0
        )
        report = trainer.train(x, y, epochs=6, local_batch=16)
        assert report.epoch_losses[-1] < report.epoch_losses[0]

    def test_cheaper_than_naiveag_at_training_density(self, testbed):
        # log P merge rounds of k beat the flat All-Gather's P·k volume.
        from repro.comm.naive_allgather import NaiveAllGather

        for d in (10_000_000, 50_000_000, 100_000_000):
            gtopk = GlobalTopK(testbed, density=0.001).time_model(d).total
            naive = NaiveAllGather(testbed, density=0.001).time_model(d).total
            assert gtopk < naive, d

    def test_time_model_structure(self, testbed):
        breakdown = GlobalTopK(testbed, density=0.001).time_model(25_000_000)
        assert set(breakdown.steps) == {"select", "merge_tree", "broadcast"}
        assert breakdown.total > 0

    def test_density_validation(self, small_cluster):
        with pytest.raises(ValueError):
            GlobalTopK(small_cluster, density=0.0)
