"""Seeding invariance: pool width may never change a result.

The contract of :mod:`repro.exec` is that ``jobs`` is pure wall-clock
policy.  These tests pin it end to end through the facade: the same
sweep of run configs, and the same sched policy grid, produce
identical reports whether the ``process`` backend runs with one worker
or four, across the paper's dense/topk/mstopk scheme families.
"""

import dataclasses

import pytest

from repro.api import RunConfig, SchedConfig, run, run_sched
from repro.exec.sweeper import ParallelSweeper

#: The paper's Fig. 10 scheme families (satellite requirement).
SCHEME_FAMILIES = ("dense", "topk", "mstopk")


def _reports_equal(a, b) -> None:
    """Full-strength RunReport equality."""
    assert a.summary == b.summary
    assert a.bench_payload() == b.bench_payload()
    assert dataclasses.asdict(a.training) == dataclasses.asdict(b.training)
    assert a.config == b.config


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
