"""Convergence experiment (Fig. 10 / Table 2) — fast assertions.

Full curves are produced by the experiment harness
(``python -m repro experiments --only "Fig. 10"``); these tests run
abbreviated versions and check the paper's qualitative claims.
"""

import pytest

from repro.train.convergence import ConvergenceRunner


@pytest.fixture(scope="module")
def mlp_result():
    runner = ConvergenceRunner(
        num_nodes=2, gpus_per_node=2, epochs=8, num_samples=512, seed=7
    )
    return runner.run("mlp")


class TestMLPConvergence:
    def test_all_algorithms_learn(self, mlp_result):
        for algorithm in ("dense", "topk", "mstopk"):
            report = mlp_result.reports[algorithm]
            assert report.val_metrics[-1] > 0.5, algorithm
            assert report.epoch_losses[-1] < report.epoch_losses[0]

    def test_sparse_not_better_than_dense(self, mlp_result):
        # Paper Fig. 10 / Table 2: sparsified variants trail dense
        # slightly.  Allow a small tolerance for noise.
        dense = mlp_result.final("dense")
        assert mlp_result.final("topk") <= dense + 0.05
        assert mlp_result.final("mstopk") <= dense + 0.05

    def test_gap_is_small(self, mlp_result):
        # "slight accuracy loss compared to the dense version".
        dense = mlp_result.final("dense")
        assert mlp_result.final("mstopk") > dense - 0.15

    def test_dense_converges_no_slower_early(self, mlp_result):
        # Area under the early curve: dense >= sparse.
        dense_area = sum(mlp_result.reports["dense"].val_metrics[:4])
        sparse_area = sum(mlp_result.reports["topk"].val_metrics[:4])
        assert dense_area >= sparse_area - 0.1

    def test_every_algorithm_records_each_epoch(self, mlp_result):
        for algorithm in ("dense", "topk", "mstopk"):
            report = mlp_result.reports[algorithm]
            assert len(report.val_metrics) == len(report.epoch_losses) == 8, algorithm

    def test_summary_rows(self, mlp_result):
        rows = mlp_result.summary_rows()
        assert {r[0] for r in rows} == {"dense", "topk", "mstopk"}


class TestRunnerConfig:
    def test_unknown_workload(self):
        runner = ConvergenceRunner(epochs=1, num_samples=128)
        with pytest.raises(KeyError):
            runner.run("gan")

    def test_epochs_override(self):
        runner = ConvergenceRunner(
            num_nodes=2, gpus_per_node=2, epochs=10, num_samples=256, seed=1
        )
        result = runner.run("mlp", algorithms=("dense",), epochs=2)
        assert len(result.reports["dense"].val_metrics) == 2

    def test_same_init_across_algorithms(self):
        # Epoch-0 losses must be near-identical: same init, same data.
        runner = ConvergenceRunner(
            num_nodes=2, gpus_per_node=2, epochs=1, num_samples=256, seed=3
        )
        result = runner.run("mlp", algorithms=("dense", "mstopk"))
        a = result.reports["dense"].epoch_losses[0]
        b = result.reports["mstopk"].epoch_losses[0]
        assert abs(a - b) / a < 0.25
