"""Hot-path instrumentation: PhaseTimer and steps/sec measurement."""

import pytest

from repro.api.registry import build_cluster, build_scheme, build_workload
from repro.perf.hotpath import (
    PhaseTimer,
    measure_steps_per_sec,
    worker_batches,
)
from repro.train.trainer import DistributedTrainer
from repro.utils.seeding import new_rng


class TestPhaseTimer:
    def test_add_accumulates_seconds_and_calls(self):
        timer = PhaseTimer()
        timer.add("aggregate", 0.25)
        timer.add("aggregate", 0.75)
        timer.add("fuse", 0.5)
        assert timer.summary() == {"aggregate": 1.0, "fuse": 0.5}
        assert timer.calls == {"aggregate": 2, "fuse": 1}

    def test_pool_worker_phases_reach_parent_timer(self):
        """The process backend's off-main-process compute is not dropped:
        per-phase shares include worker-side forward_backward/fuse."""
        from repro.exec.backend import ProcessBackend
        from repro.train.trainer import DistributedTrainer

        workload = build_workload("mlp-tiny", num_samples=64, rng=new_rng(2))
        network = build_cluster("tencent", 2, gpus_per_node=2)
        batches = worker_batches(workload.x, workload.y, 4, 8)
        with ProcessBackend(jobs=2) as pool:
            trainer = DistributedTrainer(
                workload.model,
                build_scheme("dense", network),
                seed=0,
                exec_backend=pool,
            )
            timer = PhaseTimer()
            trainer.timer = timer
            try:
                trainer.train_step(batches)
            finally:
                trainer.close()
        phases = timer.summary()
        assert {"forward_backward", "fuse", "aggregate", "apply"} <= set(phases)
        assert phases["forward_backward"] > 0.0
        # One worker-side record per model call reached the parent: each
        # of the two pool workers runs its two MLP rows as one blocked pass.
        assert timer.calls["forward_backward"] == 2


@pytest.fixture(scope="module")
def mlp_setup():
    workload = build_workload("mlp-tiny", num_samples=256, rng=new_rng(1))
    network = build_cluster("tencent", 2, gpus_per_node=2)
    batches = worker_batches(workload.x, workload.y, 4, 8)
    return workload, network, batches


class TestMeasurement:
    def test_measure_steps_per_sec_reports_phases(self, mlp_setup):
        workload, network, batches = mlp_setup
        trainer = DistributedTrainer(
            workload.model, build_scheme("mstopk", network, density=0.05), seed=0
        )
        report = measure_steps_per_sec(
            trainer, batches, steps=4, warmup=1, label="mlp"
        )
        assert report.steps == 4
        assert report.steps_per_sec > 0
        assert {"forward_backward", "fuse", "aggregate", "apply"} <= set(
            report.phase_seconds
        )
        assert 0.0 <= report.phase_share("aggregate") <= 1.0
        # The timer handed to the trainer is removed afterwards.
        assert trainer.timer is None

    def test_measure_validates_steps(self, mlp_setup):
        workload, network, batches = mlp_setup
        trainer = DistributedTrainer(
            workload.model, build_scheme("dense", network), seed=0
        )
        with pytest.raises(ValueError):
            measure_steps_per_sec(trainer, batches, steps=0)

    def test_worker_batches_shapes(self, mlp_setup):
        workload, _, batches = mlp_setup
        assert len(batches) == 4
        for bx, by in batches:
            assert len(bx) == 8 and len(by) == 8
