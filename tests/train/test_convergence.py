"""Convergence experiment (Fig. 10 / Table 2) — fast assertions.

Full curves are produced by the experiment harness
(``python -m repro experiments --only "Fig. 10"``); these tests run the
harness's run configs through ``run()`` at a trimmed shape and check the
paper's qualitative claims.
"""

import dataclasses

import pytest

from repro.api import RunConfig, run
from repro.api.config import ClusterConfig, TrainConfig
from repro.experiments.fig10_convergence import configs
from repro.utils.registry import ConfigError

SMALL = ClusterConfig(instance="tencent", num_nodes=2, gpus_per_node=2)


def _runs(workload, *, epochs, num_samples, seed, algorithms=None):
    """``algorithm -> RunReport`` of the harness's runs on a 2×2 cluster."""
    reports = {}
    for config in configs(workload, epochs=epochs, num_samples=num_samples, seed=seed):
        if algorithms is None or config.comm.scheme in algorithms:
            reports[config.comm.scheme] = run(dataclasses.replace(config, cluster=SMALL))
    return reports


@pytest.fixture(scope="module")
def mlp_reports():
    return _runs("mlp", epochs=8, num_samples=512, seed=7)


def _final(reports, algorithm):
    return reports[algorithm].training.final_val_metric


class TestMLPConvergence:
    def test_all_algorithms_learn(self, mlp_reports):
        for algorithm in ("dense", "topk", "mstopk"):
            report = mlp_reports[algorithm].training
            assert report.val_metrics[-1] > 0.5, algorithm
            assert report.epoch_losses[-1] < report.epoch_losses[0]

    def test_sparse_not_better_than_dense(self, mlp_reports):
        # Paper Fig. 10 / Table 2: sparsified variants trail dense
        # slightly.  Allow a small tolerance for noise.
        dense = _final(mlp_reports, "dense")
        assert _final(mlp_reports, "topk") <= dense + 0.05
        assert _final(mlp_reports, "mstopk") <= dense + 0.05

    def test_gap_is_small(self, mlp_reports):
        # "slight accuracy loss compared to the dense version".
        dense = _final(mlp_reports, "dense")
        assert _final(mlp_reports, "mstopk") > dense - 0.15

    def test_dense_converges_no_slower_early(self, mlp_reports):
        # Area under the early curve: dense >= sparse.
        dense_area = sum(mlp_reports["dense"].training.val_metrics[:4])
        sparse_area = sum(mlp_reports["topk"].training.val_metrics[:4])
        assert dense_area >= sparse_area - 0.1

    def test_every_algorithm_records_each_epoch(self, mlp_reports):
        for algorithm in ("dense", "topk", "mstopk"):
            report = mlp_reports[algorithm].training
            assert len(report.val_metrics) == len(report.epoch_losses) == 8, algorithm


class TestRunnerConfig:
    def test_unknown_workload(self):
        config = RunConfig(train=TrainConfig(model="gan", epochs=1, num_samples=128))
        with pytest.raises(ConfigError, match="gan"):
            run(config)

    def test_same_init_across_algorithms(self):
        # Epoch-0 losses must be near-identical: same init, same data.
        reports = _runs(
            "mlp", epochs=1, num_samples=256, seed=3, algorithms=("dense", "mstopk")
        )
        a = reports["dense"].training.epoch_losses[0]
        b = reports["mstopk"].training.epoch_losses[0]
        assert abs(a - b) / a < 0.25
