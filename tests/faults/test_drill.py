"""End-to-end fault drills through the facade: recovery + determinism.

The acceptance bar lives here: a seeded fault-storm drill (seven
composed fault kinds, including the unwarned crash, the fail-slow disk,
the gray link, and the AZ-wide reclaim) completes with recovery on
every registered scheme; the gray-failure policy drill shows
``fault-aware`` beating every fault-blind baseline on goodput under the
storm; and the event log + BENCH payload are byte-identical across
repeat runs and ``--jobs`` widths.  The fault-log digests below are the
pins: ``tests/faults/test_cli_faults.py`` holds the CLI to the same ones.
"""

import dataclasses
import json
import pathlib

import pytest

from repro.api.config import RunConfig, SchedConfig
from repro.api.facade import run
from repro.api.registry import SCHEMES
from repro.faults.drill import (
    DRILL_COLUMNS,
    GRAY_STORM_EVENTS,
    GRAY_STORM_HEALTH,
    POLICY_DRILL_COLUMNS,
    POLICY_DRILL_POLICIES,
    STORM_EVENTS,
    drill_config,
    gray_storm_config,
    run_drills,
    run_policy_drills,
)
from repro.utils.registry import ConfigError

REPO = pathlib.Path(__file__).resolve().parent.parent.parent

#: Storm-run fault-log digest per scheme (seed 7).
SCHEME_DIGESTS = {
    "2dtar": "b2400229efa5c23f",
    "dense": "6eac4986767c74ad",
    "dense-ring": "4ba44caba067601d",
    "gtopk": "a29a27e045210bc0",
    "mstopk": "fb48e74017562d7a",
    "naiveag-mstopk": "ed895b6edf0b034e",
    "topk": "ed895b6edf0b034e",
}
#: Gray-storm fault-log digest per placement policy (seed 7).
POLICY_DIGESTS = {
    "bin-pack": "60abd4d54393659a",
    "fault-aware": "6e07456dd33e75e2",
    "network-aware": "60abd4d54393659a",
    "spread": "60abd4d54393659a",
}
#: Below this share of its fault-free goodput a scheme's recovery is
#: broken, not slow (the matrix sits near 0.063).
MIN_GOODPUT_RATIO = 0.05


def _config(events, *, num_nodes=4, min_nodes=1, iterations=40,
            checkpoint_every=10, seed=7, checkpoint_timeout=None):
    faults = {"events": events}
    if checkpoint_timeout is not None:
        faults["checkpoint_timeout"] = checkpoint_timeout
    return RunConfig.from_dict(
        {
            "name": "fault-unit",
            "seed": seed,
            "cluster": {
                "instance": "tencent",
                "num_nodes": num_nodes,
                "gpus_per_node": 2,
            },
            "comm": {"scheme": "mstopk", "density": 0.05},
            "train": {"model": "mlp-tiny", "num_samples": 256, "local_batch": 8},
            "elastic": {
                "iterations": iterations,
                "schedule": "none",
                "checkpoint_every": checkpoint_every,
                "min_nodes": min_nodes,
            },
            "faults": faults,
        }
    )


def _phases(report, phase):
    return [e for e in report.faults["entries"] if e["phase"] == phase]


class TestStormRecoveryEveryScheme:
    def test_storm_composes_required_kinds(self):
        kinds = {event["kind"] for event in STORM_EVENTS}
        # >= 3 kinds composed, the unwarned crash and AZ reclaim included.
        assert {"node-crash", "az-reclaim"} <= kinds
        assert len(kinds) >= 3

    def test_every_registered_scheme_recovers(self):
        results = run_drills()
        assert [r["scheme"] for r in results] == SCHEMES.available()
        for result in results:
            assert result["injected"] == len(STORM_EVENTS), result
            assert result["recovered"] == result["injected"], result
            assert result["absorbed"] == 0, result
            assert result["corrupt_checkpoints"] >= 1, result
            assert result["lost_iterations"] > 0, result
            assert result["detect_recover_s"] > 0, result
            # Storm goodput is real but strictly below the baseline.
            assert 0 < result["storm_goodput"] < result["baseline_goodput"]
            assert result["goodput_ratio"] >= MIN_GOODPUT_RATIO, result

    def test_drill_scores_latency_and_goodput_vs_baseline(self):
        (row,) = run_drills(["mstopk"])
        assert set(DRILL_COLUMNS) <= set(row)
        assert 0 < row["goodput_ratio"] < 1
        assert row["storm_usd_per_kiter"] > row["baseline_usd_per_kiter"]

    @pytest.fixture(scope="class")
    def pinned(self):
        return {r["scheme"]: r for r in run_drills(list(SCHEME_DIGESTS), seed=7)}

    @pytest.mark.parametrize("scheme", sorted(SCHEME_DIGESTS))
    def test_scorecard_row_is_consistent(self, pinned, scheme):
        row = pinned[scheme]
        assert set(DRILL_COLUMNS) <= set(row)
        # Lost and re-done iterations bill the storm more per kiter.
        assert row["storm_usd_per_kiter"] > row["baseline_usd_per_kiter"], row
        assert row["goodput_ratio"] == pytest.approx(
            row["storm_goodput"] / row["baseline_goodput"], rel=1e-5
        )

    def test_scheme_alias_resolves_to_the_pinned_row(self):
        (row,) = run_drills(["torus"], seed=7)
        assert row["scheme"] == "2dtar"
        assert row["log_digest"] == SCHEME_DIGESTS["2dtar"]

    def test_unknown_scheme_is_one_config_error(self):
        with pytest.raises(ConfigError, match="unknown comm scheme 'nope'; registered: "):
            run_drills(["nope"])


class TestDeterminism:
    def test_repeat_runs_byte_identical(self):
        config = drill_config("topk", storm=True)
        first, second = run(config), run(config)
        canon = lambda r: json.dumps(r.faults, sort_keys=True)  # noqa: E731
        assert canon(first) == canon(second)
        assert json.dumps(first.bench_payload(), sort_keys=True) == json.dumps(
            second.bench_payload(), sort_keys=True
        )

    def test_log_timestamps_are_virtual(self):
        report = run(drill_config("dense", storm=True))
        total = report.elastic_run.total_seconds
        for entry in report.faults["entries"]:
            assert 0 <= entry["t"] <= total + 1e-9

    def test_payload_embeds_log_and_summary(self):
        report = run(drill_config("dense", storm=True))
        meta = report.bench_payload()["meta"]
        assert meta["faults"]["summary"]["injected"] == len(STORM_EVENTS)
        assert meta["faults"]["entries"] == report.faults["entries"]
        summary = report.summary
        assert summary["fault_injections"] == len(STORM_EVENTS)
        assert summary["fault_recoveries"] == len(STORM_EVENTS)

    def test_no_faults_section_leaves_payload_unchanged(self):
        report = run(drill_config("dense", storm=False))
        assert report.faults is None
        assert "faults" not in report.bench_payload()["meta"]
        assert "fault_injections" not in report.summary


def test_drill_digests_equal_committed_baseline():
    """Every per-scheme run-storm and per-policy gray-storm fault log is
    the pinned one, byte for byte — a dropped detail key fails here."""
    # The pinned schemes by name: other tests leave schemes registered.
    assert {
        r["scheme"]: r["log_digest"] for r in run_drills(list(SCHEME_DIGESTS), seed=7)
    } == SCHEME_DIGESTS
    assert {
        r["policy"]: r["log_digest"] for r in run_policy_drills(seed=7)
    } == POLICY_DIGESTS


class TestInjectionEdgeCases:
    def test_crash_at_min_nodes_floor_absorbed(self):
        config = _config(
            [{"kind": "node-crash", "at": 15}], num_nodes=2, min_nodes=2
        )
        report = run(config)
        assert report.faults["summary"]["absorbed"] == 1
        assert report.faults["summary"]["recovered"] == 0
        assert report.elastic_run.rollbacks == 0

    def test_explicit_node_crash_hits_that_node(self):
        config = _config([{"kind": "node-crash", "at": 15, "node": 2}])
        report = run(config)
        (inject,) = _phases(report, "inject")
        assert inject["detail"]["nodes"] == [2]
        (recover,) = _phases(report, "recover")
        assert recover["detail"]["lost_iterations"] == 5  # rolled back to ckpt(10)

    def test_corrupt_initial_checkpoint_forces_scratch_restart(self):
        # The trainer checkpoints at iteration 0, so an early corruption
        # hits that initial snapshot; the crash that follows finds no
        # intact slot and restarts from scratch.
        config = _config(
            [
                {"kind": "checkpoint-corrupt", "at": 5},
                {"kind": "node-crash", "at": 7},
            ]
        )
        report = run(config)
        assert report.elastic_run.corrupt_checkpoints == 1
        assert report.elastic_run.lost_iterations == 7

    def test_all_checkpoints_corrupt_restarts_from_scratch(self):
        # Damage both double-buffered slots, then crash: the rebuild walks
        # the stack, rejects both via CRC, and restarts from iteration 0.
        config = _config(
            [
                {"kind": "checkpoint-corrupt", "at": 12},
                {"kind": "checkpoint-corrupt", "at": 22},
                {"kind": "node-crash", "at": 25},
            ]
        )
        report = run(config)
        assert report.elastic_run.corrupt_checkpoints == 2
        assert report.elastic_run.lost_iterations == 25
        assert report.elastic_run.useful_iterations == 40

    def test_nic_window_expires_with_recover_entry(self):
        config = _config(
            [{"kind": "nic-degrade", "at": 10, "duration": 8, "scale": 0.5}]
        )
        report = run(config)
        (recover,) = _phases(report, "recover")
        assert recover["kind"] == "nic-degrade"
        assert recover["detail"]["action"] == "bandwidth restored"
        assert recover["t"] > 0

    def test_straggler_slows_iterations_in_window(self):
        base = run(_config([], seed=3))

        slowed = run(
            _config(
                [{"kind": "straggler", "at": 10, "duration": 20, "stretch": 3.0}],
                seed=3,
            )
        )
        assert slowed.elastic_run.total_seconds > base.elastic_run.total_seconds
        assert slowed.elastic_run.useful_iterations == base.elastic_run.useful_iterations

    def test_gray_net_slows_run_and_logs_link_detail(self):
        base = run(_config([], seed=3))
        gray = run(
            _config(
                [{"kind": "gray-net", "at": 10, "duration": 20,
                  "loss_rate": 0.1, "jitter": 0.5}],
                seed=3,
            )
        )
        assert gray.elastic_run.total_seconds > base.elastic_run.total_seconds
        assert gray.elastic_run.useful_iterations == base.elastic_run.useful_iterations
        (inject,) = _phases(gray, "inject")
        assert inject["detail"]["loss_rate"] == 0.1
        assert inject["detail"]["jitter"] == 0.5
        (recover,) = _phases(gray, "recover")
        assert recover["detail"]["action"] == "link health restored"

    def test_gray_net_digest_differs_from_nic_degrade(self):
        # Same window, both slow communication — but they are distinct
        # fault kinds with distinct log streams, not aliases.
        gray = run(
            _config(
                [{"kind": "gray-net", "at": 10, "duration": 20,
                  "loss_rate": 0.3, "jitter": 0.0}],
                seed=3,
            )
        )
        nic = run(
            _config(
                [{"kind": "nic-degrade", "at": 10, "duration": 20, "scale": 0.7}],
                seed=3,
            )
        )
        assert gray.faults["summary"]["digest"] != nic.faults["summary"]["digest"]

    def test_disk_slow_stretches_checkpoint_writes(self):
        base = run(_config([], seed=3))
        slow = run(
            _config(
                [{"kind": "disk-slow", "at": 5, "duration": 30, "stretch": 4.0}],
                seed=3,
            )
        )
        # No budget configured: the writes just take stretch times longer.
        assert slow.elastic_run.total_seconds > base.elastic_run.total_seconds
        assert slow.faults["summary"]["checkpoint_retries"] == 0
        (recover,) = _phases(slow, "recover")
        assert recover["detail"]["action"] == "disk speed restored"

    def test_disk_slow_with_budget_abandons_and_retries(self):
        report = run(
            _config(
                [{"kind": "disk-slow", "at": 5, "duration": 30, "stretch": 6.0}],
                seed=3,
                checkpoint_timeout=4.0,
            )
        )
        summary = report.faults["summary"]
        assert summary["checkpoint_retries"] >= 1
        actions = [
            e["detail"].get("action")
            for e in report.faults["entries"]
            if e["kind"] == "disk-slow"
        ]
        assert "checkpoint write exceeded budget; abandoned" in actions
        assert "retried on fallback slot" in actions


class TestPolicyDrill:
    """The tentpole scorecard: fault-aware vs the fault-blind built-ins."""

    @pytest.fixture(scope="class")
    def results(self):
        return run_policy_drills(seed=7)

    def test_covers_all_four_policies(self, results):
        assert [r["policy"] for r in results] == list(POLICY_DRILL_POLICIES)
        for result in results:
            assert set(POLICY_DRILL_COLUMNS) <= set(result)

    def test_fault_aware_beats_every_fault_blind_baseline(self, results):
        by_policy = {r["policy"]: r for r in results}
        aware = by_policy["fault-aware"]
        for blind in ("bin-pack", "spread", "network-aware"):
            assert aware["storm_goodput"] > by_policy[blind]["storm_goodput"], blind
            assert aware["goodput_ratio"] > by_policy[blind]["goodput_ratio"], blind
            assert aware["usd_per_kiter"] < by_policy[blind]["usd_per_kiter"], blind

    def test_storm_quarantines_the_repeat_offender(self, results):
        expanded = sum(e.get("repeat", 1) for e in GRAY_STORM_EVENTS)
        for result in results:
            assert result["injected"] == expanded
            # The ledger timeline is policy-independent: every policy
            # sees the same flap train and the same quarantine.
            assert result["quarantines"] == 1

    @pytest.mark.parametrize("policy", POLICY_DRILL_POLICIES)
    def test_gray_storm_costs_every_policy_goodput(self, results, policy):
        (row,) = [r for r in results if r["policy"] == policy]
        assert 0 < row["storm_goodput"] < row["baseline_goodput"], row
        assert row["goodput_ratio"] == pytest.approx(
            row["storm_goodput"] / row["baseline_goodput"], rel=1e-5
        )
        assert row["lost_iterations"] > 0 and row["usd_per_kiter"] > 0, row

    def test_policy_alias_resolves_to_the_pinned_row(self):
        (row,) = run_policy_drills(["binpack"], seed=7)
        assert row["policy"] == "bin-pack"
        assert row["log_digest"] == POLICY_DIGESTS["bin-pack"]

    def test_unknown_policy_is_one_config_error(self):
        with pytest.raises(ConfigError, match="unknown policy 'nope'; registered: "):
            run_policy_drills(["nope"])

    def test_repeat_runs_identical(self, results):
        again = run_policy_drills(seed=7)
        assert json.dumps(again, sort_keys=True) == json.dumps(
            results, sort_keys=True
        )


class TestCommittedGrayStormConfig:
    def test_example_config_matches_generator(self):
        # examples/configs/gray_storm.json is the CLI twin of
        # gray_storm_config(storm=True): drift in either direction breaks
        # the docs walkthrough and the CI smoke gate.
        on_disk = SchedConfig.from_dict(
            json.loads((REPO / "examples" / "configs" / "gray_storm.json").read_text())
        )
        assert on_disk == gray_storm_config(storm=True)

    def test_fault_drill_config_matches_generator(self):
        # examples/configs/fault_drill.json is the CLI twin of the
        # mstopk storm drill (only the name differs).
        on_disk = RunConfig.from_dict(
            json.loads((REPO / "examples" / "configs" / "fault_drill.json").read_text())
        )
        assert on_disk == dataclasses.replace(
            drill_config("mstopk", storm=True), name="fault-drill"
        )

    def test_storm_health_knobs_round_trip(self):
        config = gray_storm_config(storm=True)
        assert config.faults.quarantine_threshold == (
            GRAY_STORM_HEALTH["quarantine_threshold"]
        )
        assert config.faults.health_half_life == GRAY_STORM_HEALTH["health_half_life"]
        assert config.faults.probe_cooldown == GRAY_STORM_HEALTH["probe_cooldown"]

    def test_baseline_variant_has_no_faults(self):
        assert gray_storm_config(storm=False).faults is None


@pytest.mark.parametrize("jobs", [2])
def test_pool_width_invariance_in_process(jobs):
    """A pooled sweep returns the serial drill runs bit for bit, full
    fault logs included."""
    from repro.api.config import ExecConfig
    from repro.api.facade import run_sched
    from repro.exec.sweeper import ParallelSweeper

    configs = [
        drill_config(scheme, storm=storm)
        for scheme in ("dense", "mstopk")
        for storm in (False, True)
    ]
    canon = lambda report: json.dumps(  # noqa: E731
        [report.bench_payload(), report.faults], sort_keys=True
    )
    pooled = ParallelSweeper(jobs=jobs).run_configs(configs)
    assert [canon(r) for r in pooled] == [canon(run(c)) for c in configs]
    for storm in (True, False):
        config = gray_storm_config(storm=storm)
        pooled = run_sched(dataclasses.replace(config, exec=ExecConfig(jobs=jobs)))
        assert pooled == run_sched(config)
