"""Seeding invariance: pool width may never change a result.

The contract of :mod:`repro.exec` is that ``jobs`` is pure wall-clock
policy.  These tests pin it end to end through the facade: the same
``RunConfig`` produces an identical :class:`RunReport` whether the
``process`` backend runs with one worker or four — for the trainer's
per-worker fan-out and for whole-config sweeps — across the paper's
dense/topk/mstopk scheme families.
"""

import dataclasses

import numpy as np
import pytest

from repro.api import RunConfig, SchedConfig, run, run_sched
from repro.api.config import ExecConfig
from repro.exec.sweeper import ParallelSweeper

#: The paper's Fig. 10 scheme families (satellite requirement).
SCHEME_FAMILIES = ("dense", "topk", "mstopk")


def _train_config(scheme: str, jobs: int) -> RunConfig:
    return RunConfig.from_dict(
        {
            "name": f"inv-{scheme}",
            "seed": 11,
            "cluster": {"instance": "tencent", "num_nodes": 2, "gpus_per_node": 2},
            "comm": {"scheme": scheme, "density": 0.05},
            "train": {"model": "mlp", "epochs": 1, "num_samples": 192, "local_batch": 8},
            "exec": {"backend": "process", "jobs": jobs},
        }
    )


def _reports_equal(a, b) -> None:
    """Full-strength RunReport equality, modulo the exec section."""
    assert a.summary == b.summary
    assert a.bench_payload() == b.bench_payload()
    if a.training is not None:
        assert dataclasses.asdict(a.training) == dataclasses.asdict(b.training)
    if a.elastic_run is not None:
        assert dataclasses.asdict(a.elastic_run) == dataclasses.asdict(b.elastic_run)
    config_a = {k: v for k, v in a.config.items() if k != "exec"}
    config_b = {k: v for k, v in b.config.items() if k != "exec"}
    assert config_a == config_b


class TestTrainerBackendInvariance:
    @pytest.mark.parametrize("scheme", SCHEME_FAMILIES)
    def test_jobs_1_vs_4_identical_run_report(self, scheme):
        one = run(_train_config(scheme, jobs=1))
        four = run(_train_config(scheme, jobs=4))
        _reports_equal(one, four)

    def test_process_jobs_1_matches_serial(self):
        serial = run(
            dataclasses.replace(_train_config("mstopk", jobs=1), exec=ExecConfig())
        )
        process = run(_train_config("mstopk", jobs=1))
        _reports_equal(serial, process)

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_cnn_blocked_inside_each_chunk_matches_serial(self, jobs):
        """Four workers' rows chunked 4 / 2 + 2 / 2 + 1 + 1: each pool
        worker runs the CNN's blocked pass on its chunk (the per-row body
        on a one-row chunk), all bit-identical to the serial trainer."""
        config = RunConfig.from_dict(
            {
                "name": "inv-cnn",
                "seed": 11,
                "cluster": {"instance": "tencent", "num_nodes": 2, "gpus_per_node": 2},
                "comm": {"scheme": "mstopk", "density": 0.05},
                "train": {"model": "cnn", "epochs": 1, "num_samples": 96, "local_batch": 4},
                "exec": {"backend": "process", "jobs": jobs},
            }
        )
        _reports_equal(run(dataclasses.replace(config, exec=ExecConfig())), run(config))

    def test_elastic_jobs_invariance(self):
        def config(jobs):
            return RunConfig.from_dict(
                {
                    "name": "inv-elastic",
                    "seed": 5,
                    "cluster": {"num_nodes": 3, "gpus_per_node": 2},
                    "comm": {"scheme": "mstopk", "density": 0.05},
                    "train": {"model": "mlp-tiny", "num_samples": 192, "local_batch": 8},
                    "elastic": {"iterations": 18, "rate": 0.05, "rejoin_delay": 4},
                    "exec": {"backend": "process", "jobs": jobs},
                }
            )

        _reports_equal(run(config(1)), run(config(4)))


class TestSweepInvariance:
    @pytest.fixture(scope="class")
    def sweep_configs(self):
        return [
            RunConfig.from_dict(
                {
                    "name": f"sweep-{scheme}-{seed}",
                    "seed": seed,
                    "comm": {"scheme": scheme, "density": 0.05},
                    "train": {"model": "mlp-tiny", "epochs": 1, "num_samples": 128},
                }
            )
            for scheme in SCHEME_FAMILIES
            for seed in (0, 1)
        ]

    def test_process_sweep_jobs_1_vs_4(self, sweep_configs):
        one = ParallelSweeper("process", jobs=1).run_configs(sweep_configs)
        four = ParallelSweeper("process", jobs=4).run_configs(sweep_configs)
        assert len(one) == len(four) == len(sweep_configs)
        for a, b in zip(one, four):
            _reports_equal(a, b)

    def test_process_sweep_matches_serial_loop(self, sweep_configs):
        serial = [run(config) for config in sweep_configs]
        pooled = ParallelSweeper("process", jobs=4).run_configs(sweep_configs)
        for a, b in zip(serial, pooled):
            _reports_equal(a, b)

    def test_results_keep_submission_order(self, sweep_configs):
        reports = ParallelSweeper("process", jobs=4).run_configs(sweep_configs)
        assert [r.name for r in reports] == [c.name for c in sweep_configs]


class TestSchedInvariance:
    def _config(self, jobs: int) -> SchedConfig:
        return SchedConfig.from_dict(
            {
                "name": "inv-sched",
                "cluster": {"num_nodes": 4, "gpus_per_node": 2},
                "policies": ["bin-pack", "spread", "network-aware"],
                "jobs": [
                    {"name": "a", "profile": "resnet50", "iterations": 120,
                     "max_nodes": 2},
                    {"name": "b", "profile": "vgg19", "scheme": "dense",
                     "iterations": 80, "priority": 1, "max_nodes": 2},
                    {"name": "c", "profile": "transformer", "iterations": 60,
                     "arrival_seconds": 30.0},
                ],
                "exec": {"backend": "process", "jobs": jobs},
            }
        )

    def test_policy_grid_jobs_1_vs_4_identical(self):
        one = run_sched(self._config(1))
        four = run_sched(self._config(4))
        assert list(one) == list(four)
        assert one == four

    def test_matches_serial_run_sched(self):
        serial_config = SchedConfig.from_dict(
            {**self._config(1).to_dict(), "exec": {"backend": "serial"}}
        )
        serial = run_sched(serial_config)
        pooled = run_sched(self._config(3))
        assert list(serial) == list(pooled)
        assert serial == pooled


def test_grad_matrix_values_match_serial_exactly():
    """Row-level check: the shared matrix holds the serial gradients."""
    from repro.api.registry import build_cluster, build_scheme, build_workload
    from repro.exec.backend import ProcessBackend
    from repro.train.trainer import DistributedTrainer
    from repro.utils.seeding import new_rng

    workload = build_workload("cnn", num_samples=64, rng=new_rng(2))
    network = build_cluster("tencent", 2, gpus_per_node=2)
    batches = [(workload.x[i : i + 4], workload.y[i : i + 4]) for i in range(4)]

    serial = DistributedTrainer(workload.model, build_scheme("dense", network), seed=4)
    serial.train_step(batches)
    serial_matrix = serial._grad_matrix.copy()

    with ProcessBackend(jobs=2) as pool:
        parallel = DistributedTrainer(
            workload.model, build_scheme("dense", network), seed=4, exec_backend=pool
        )
        try:
            parallel.train_step(batches)
            np.testing.assert_array_equal(parallel._grad_matrix, serial_matrix)
        finally:
            parallel.close()
