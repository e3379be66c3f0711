"""Fault registry + plan resolution: validation fails loudly at load time."""

import json

import pytest

from repro.api.config import FaultConfig, FaultsConfig
from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.registry import FAULT_TARGETS, FAULTS, Fault, FaultError
from repro.utils.seeding import derive_seed


class TestRegistry:
    def test_builtins_registered(self):
        assert FAULTS.available() == [
            "az-reclaim",
            "checkpoint-corrupt",
            "disk-slow",
            "gray-net",
            "nic-degrade",
            "node-crash",
            "straggler",
        ]

    def test_aliases_resolve(self):
        for alias, canonical in (
            ("crash", "node-crash"),
            ("az", "az-reclaim"),
            ("spot-storm", "az-reclaim"),
            ("nic", "nic-degrade"),
            ("nic-flap", "nic-degrade"),
            ("slow-node", "straggler"),
            ("ckpt-corrupt", "checkpoint-corrupt"),
            ("gray", "gray-net"),
            ("packet-loss", "gray-net"),
            ("slow-disk", "disk-slow"),
            ("fail-slow", "disk-slow"),
        ):
            assert FAULTS.canonical(alias) == canonical

    def test_fault_error_is_value_error(self):
        # The CLI maps ValueError to a one-line `error:` exit 2; FaultError
        # must ride that path.
        assert issubclass(FaultError, ValueError)

    def test_targets_cover_both_surfaces(self):
        assert FAULT_TARGETS == ("run", "sched")
        for name in FAULTS.available():
            targets = FAULTS.get(name)().targets
            assert targets <= set(FAULT_TARGETS) and targets

    def test_checkpoint_corrupt_is_run_only(self):
        assert FAULTS.get("checkpoint-corrupt")().targets == {"run"}

    def test_disk_slow_is_run_only(self):
        # The scheduler's closed form has no checkpoint writes to slow
        # down, so "disk-slow without checkpointing" is a load-time error.
        assert FAULTS.get("disk-slow")().targets == {"run"}

    def test_base_class_rejects_unimplemented_surfaces(self):
        event = FaultEvent(fault_id=0, kind="custom", at=1.0)
        with pytest.raises(FaultError, match="cannot target"):
            Fault().apply_run(None, event, None)
        with pytest.raises(FaultError, match="cannot target"):
            Fault().apply_sched(None, event, None)


class TestPlanResolution:
    def test_unknown_kind(self):
        faults = FaultsConfig(events=(FaultConfig(kind="bogus", at=1),))
        with pytest.raises(FaultError, match="unknown fault 'bogus'"):
            FaultPlan.from_config(faults, seed=1, target="run")

    def test_unknown_target(self):
        with pytest.raises(FaultError, match="unknown fault target"):
            FaultPlan.from_config(FaultsConfig(), seed=1, target="cluster")

    def test_target_mismatch(self):
        faults = FaultsConfig(events=(FaultConfig(kind="checkpoint-corrupt", at=1),))
        with pytest.raises(FaultError, match="cannot target 'sched'"):
            FaultPlan.from_config(faults, seed=1, target="sched")

    def test_alias_canonicalised_in_plan(self):
        faults = FaultsConfig(events=(FaultConfig(kind="crash", at=3),))
        plan = FaultPlan.from_config(faults, seed=1, target="run")
        assert plan.events[0].kind == "node-crash"
        assert plan.kinds == ["node-crash"]

    def test_repeat_expands_flap_train(self):
        faults = FaultsConfig(
            events=(
                FaultConfig(kind="nic-degrade", at=10, duration=5, scale=0.5,
                            repeat=3, period=20),
            )
        )
        plan = FaultPlan.from_config(faults, seed=1, target="run")
        assert [e.at for e in plan.events] == [10, 30, 50]
        assert [e.fault_id for e in plan.events] == [0, 1, 2]
        assert all(e.until == e.at + 5 for e in plan.events)

    def test_events_sorted_by_time_then_id(self):
        faults = FaultsConfig(
            events=(
                FaultConfig(kind="node-crash", at=50),
                FaultConfig(kind="straggler", at=10, duration=5, stretch=2.0),
            )
        )
        plan = FaultPlan.from_config(faults, seed=1, target="run")
        assert [e.at for e in plan.events] == [10, 50]
        assert [e.fault_id for e in plan.events] == [1000, 0]

    def test_seed_derived_from_run_seed_unless_pinned(self):
        derived = FaultPlan.from_config(FaultsConfig(), seed=7, target="run")
        assert derived.seed == derive_seed(7, "faults")
        pinned = FaultPlan.from_config(FaultsConfig(seed=99), seed=7, target="run")
        assert pinned.seed == 99

    def test_duration_zero_is_permanent(self):
        event = FaultEvent(fault_id=0, kind="nic-degrade", at=5.0, duration=0.0)
        assert event.until == float("inf")

    @pytest.mark.parametrize(
        "entry, message",
        [
            (FaultConfig(kind="node-crash", at=-1), "at must be >= 0"),
            (FaultConfig(kind="node-crash", at=1, duration=-2), "duration must be >= 0"),
            (FaultConfig(kind="node-crash", at=1, repeat=0), "repeat must be >= 1"),
            (FaultConfig(kind="node-crash", at=1, repeat=2), "positive period"),
            (FaultConfig(kind="node-crash", at=1, repeat=10**9, period=1),
             r"faults\.events\[0\]: repeat must be <= 1000, got 1000000000"),
            (FaultConfig(kind="node-crash", at=1, node=-3), "node must be >= 0"),
            (FaultConfig(kind="nic-degrade", at=1, scale=1.5), "scale must be in"),
            (FaultConfig(kind="straggler", at=1, stretch=0.5), "stretch must be > 1"),
            (FaultConfig(kind="az-reclaim", at=1, fraction=0.0), "fraction must be in"),
            (FaultConfig(kind="gray-net", at=1, loss_rate=1.0),
             r"loss_rate must be in \[0, 1\)"),
            (FaultConfig(kind="gray-net", at=1, loss_rate=-0.1),
             r"loss_rate must be in \[0, 1\)"),
            (FaultConfig(kind="gray-net", at=1, jitter=-0.5), "jitter must be >= 0"),
            (FaultConfig(kind="gray-net", at=1, jitter_dist="weird"),
             "unknown jitter distribution"),
            (FaultConfig(kind="disk-slow", at=1, stretch=1.0), "stretch must be > 1"),
        ],
    )
    def test_parameter_validation(self, entry, message):
        faults = FaultsConfig(events=(entry,))
        with pytest.raises(FaultError, match=message):
            FaultPlan.from_config(faults, seed=1, target="run")

    def test_checkpoint_iterations_floor(self):
        faults = FaultsConfig(checkpoint_iterations=0)
        with pytest.raises(FaultError, match="checkpoint_iterations"):
            FaultPlan.from_config(faults, seed=1, target="sched")

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"checkpoint_timeout": -1.0}, "checkpoint_timeout must be >= 0"),
            ({"quarantine_threshold": -1.0}, "quarantine_threshold must be > 0"),
            ({"quarantine_threshold": 0.0}, "quarantine_threshold must be > 0"),
            ({"health_half_life": 0.0}, "health_half_life must be > 0"),
            ({"probe_cooldown": -5.0}, "probe_cooldown must be >= 0"),
        ],
    )
    def test_health_knob_validation(self, kwargs, message):
        faults = FaultsConfig(**kwargs)
        with pytest.raises(FaultError, match=message):
            FaultPlan.from_config(faults, seed=1, target="sched")

    def test_health_knobs_reach_plan(self):
        faults = FaultsConfig(
            checkpoint_timeout=4.0,
            quarantine_threshold=1.5,
            health_half_life=120.0,
            probe_cooldown=60.0,
        )
        plan = FaultPlan.from_config(faults, seed=1, target="sched")
        # Read from the section itself, not copied onto the plan.
        assert plan.config is faults


class TestPlanFiles:
    def test_plan_file_loads_events(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(
            {"events": [{"kind": "crash", "at": 12, "node": 1}]}
        ))
        plan = FaultPlan.from_config(
            FaultsConfig(plan=str(path)), seed=1, target="run"
        )
        assert len(plan.events) == 1
        assert plan.events[0].kind == "node-crash"
        assert plan.events[0].node == 1

    def test_plan_file_bare_list(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps([{"kind": "straggler", "at": 4, "stretch": 3.0}]))
        plan = FaultPlan.from_config(
            FaultsConfig(plan=str(path)), seed=1, target="run"
        )
        assert plan.kinds == ["straggler"]

    def test_plan_file_missing(self):
        with pytest.raises(FaultError, match="not found"):
            FaultPlan.from_config(
                FaultsConfig(plan="/nonexistent/plan.json"), seed=1, target="run"
            )

    def test_plan_file_invalid_json(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{not json")
        with pytest.raises(FaultError, match="not valid JSON"):
            FaultPlan.from_config(
                FaultsConfig(plan=str(path)), seed=1, target="run"
            )

    def test_plan_file_unknown_keys(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"events": [{"kind": "crash", "when": 3}]}))
        with pytest.raises(FaultError, match="unknown key"):
            FaultPlan.from_config(
                FaultsConfig(plan=str(path)), seed=1, target="run"
            )

    def test_events_and_plan_mutually_exclusive(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("[]")
        faults = FaultsConfig(
            events=(FaultConfig(kind="node-crash", at=1),), plan=str(path)
        )
        with pytest.raises(FaultError, match="mutually exclusive"):
            FaultPlan.from_config(faults, seed=1, target="run")
