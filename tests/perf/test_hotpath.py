"""Hot-path instrumentation: the trainer's ``timer.add(phase, seconds)``."""

import pytest

from repro.api.registry import build_cluster, build_scheme, build_workload
from repro.utils.partition import round_robin_shards
from repro.utils.seeding import new_rng
from tests.conftest import PhaseTimer

#: The trainer's phases, in the order one step records them.
PHASES = ("forward_backward", "fuse", "aggregate", "apply")


class TestPhaseTimer:
    def test_add_accumulates_seconds_and_calls(self):
        timer = PhaseTimer()
        timer.add("aggregate", 0.25)
        timer.add("aggregate", 0.75)
        timer.add("fuse", 0.5)
        assert timer.summary() == {"aggregate": 1.0, "fuse": 0.5}
        assert timer.calls == {"aggregate": 2, "fuse": 1}

    @pytest.mark.parametrize(
        "model, scheme", [("mlp-tiny", "dense"), ("mlp-tiny", "mstopk"), ("cnn", "mstopk")]
    )
    def test_serial_trainer_times_every_phase_once_per_step(self, model, scheme):
        from repro.train.trainer import DistributedTrainer

        workload = build_workload(model, num_samples=64, rng=new_rng(1))
        network = build_cluster("tencent", 2, gpus_per_node=2)
        shards = round_robin_shards(workload.x, workload.y, 4)
        batches = [(sx[:4], sy[:4]) for sx, sy in shards]
        trainer = DistributedTrainer(
            workload.model, build_scheme(scheme, network, density=0.05), seed=0
        )
        timer = PhaseTimer()
        trainer.timer = timer
        for _ in range(3):
            trainer.train_step(batches)
        # Equal batches make one blocked model call per step.
        assert timer.calls == {phase: 3 for phase in PHASES}
        assert list(timer.summary()) == list(PHASES)
        assert all(seconds >= 0.0 for seconds in timer.seconds.values())

    def test_summary_is_a_copy(self):
        timer = PhaseTimer()
        timer.add("apply", 0.5)
        timer.summary()["apply"] = 9.0
        assert timer.seconds == {"apply": 0.5}
