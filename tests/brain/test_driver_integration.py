"""BrainDriver through the real scheduler: the gray-storm decision replay.

These tests drive the committed gray storm end to end and audit the
decision log the driver leaves behind: structure, phase vocabulary,
per-tick action cap (with its decline entries), and the per-job dwell
spacing no two applied actions may violate.
"""

import dataclasses

import pytest

from repro.api.facade import run_sched
from repro.brain.drill import BRAIN_DRILL_BRAINS, brain_storm_config, run_brain_drills
from repro.brain.log import PHASES
from repro.utils.registry import ConfigError

APPLY_PHASES = ("migrate", "shrink", "grow")

#: Decision-log and fault-log digest per brain on the gray storm (seed 7).
DIGESTS = {
    "health-migrate": {"brain": "14add2455a4c7b21", "faults": "6ad1f8e0d14d270d"},
    "static": {"brain": None, "faults": "6e07456dd33e75e2"},
    "throughput": {"brain": "4820bfb68fd4aa35", "faults": "6ad1f8e0d14d270d"},
}


def _storm_report(brain: str, **brain_overrides):
    data = brain_storm_config(brain).to_dict()
    data["brain"].update(brain_overrides)
    from repro.api.config import SchedConfig

    return next(iter(run_sched(SchedConfig.from_dict(data)).values()))


@pytest.fixture(scope="module")
def health_report():
    return _storm_report("health-migrate")


class TestBrainLogStructure:
    def test_summary_shape(self, health_report):
        log = health_report.brain_log
        assert log["brain"] == "health-migrate"
        assert log["ticks"] >= 1
        assert log["events"] == len(log["entries"])
        assert len(log["digest"]) == 16 and int(log["digest"], 16) >= 0

    def test_entries_schema(self, health_report):
        entries = health_report.brain_log["entries"]
        for index, entry in enumerate(entries):
            assert entry["seq"] == index
            assert entry["t"] >= 0
            assert entry["phase"] in PHASES

    def test_counters_match_entries(self, health_report):
        log = health_report.brain_log
        by_phase = {}
        for entry in log["entries"]:
            by_phase[entry["phase"]] = by_phase.get(entry["phase"], 0) + 1
        assert log["migrations"] == by_phase.get("migrate", 0)
        assert log["shrinks"] == by_phase.get("shrink", 0)
        assert log["grows"] == by_phase.get("grow", 0)
        assert log["declined"] == by_phase.get("decline", 0)

    def test_storm_triggers_a_migration_with_reason(self, health_report):
        migrations = [
            e for e in health_report.brain_log["entries"] if e["phase"] == "migrate"
        ]
        assert migrations, "the gray storm never triggered a health migration"
        for entry in migrations:
            detail = entry["detail"]
            assert "suspicion" in detail["reason"]
            assert detail["src"] != detail["dst"]

    def test_static_run_has_no_brain_log(self):
        report = _storm_report("static")
        assert report.brain_log is None


class TestDriverInvariants:
    def test_dwell_spacing_per_job(self, health_report):
        # No job may be rescaled twice within min_dwell virtual seconds
        # (120 s on the default config).
        applied = {}
        for entry in health_report.brain_log["entries"]:
            if entry["phase"] in APPLY_PHASES:
                applied.setdefault(entry["job"], []).append(entry["t"])
        assert applied
        for job, times in applied.items():
            gaps = [b - a for a, b in zip(times, times[1:])]
            assert all(gap >= 120.0 - 1e-9 for gap in gaps), (job, times)

    def test_action_cap_declines_overflow(self):
        # The default storm tick at t=120 applies two shrinks; capping
        # max_actions at 1 must decline the overflow, not drop it
        # silently.
        report = _storm_report("health-migrate", max_actions=1)
        log = report.brain_log
        assert log["declined"] >= 1
        declines = [e for e in log["entries"] if e["phase"] == "decline"]
        assert any("cap" in e["detail"]["reason"] for e in declines)

    def test_tick_entries_record_gray_nodes(self, health_report):
        ticks = [
            e for e in health_report.brain_log["entries"] if e["phase"] == "tick"
        ]
        assert ticks
        for entry in ticks:
            detail = entry["detail"]
            assert detail["jobs"] >= 0
            # Idle ticks (no running jobs) skip the observation and so
            # record no gray set.
            if detail["jobs"]:
                assert detail["gray"] == sorted(detail["gray"])


class TestDrillScorecard:
    @pytest.fixture(scope="class")
    def results(self):
        return run_brain_drills(seed=7)

    def test_drill_rows_cover_requested_brains(self):
        results = run_brain_drills(["static", "health-migrate"])
        assert [r["brain"] for r in results] == ["static", "health-migrate"]
        static, brain = results
        assert static["brain_digest"] is None
        assert brain["brain_digest"]
        # The PR's acceptance bar, at the API level.
        assert brain["storm_goodput"] > static["storm_goodput"]
        assert brain["mean_jct_s"] < static["mean_jct_s"]
        assert brain["usd_per_kiter"] < static["usd_per_kiter"]
        assert brain["fairness"] >= static["fairness"]

    def test_digests_equal_committed_baseline(self, results):
        # Decision log and fault log of every brain, byte for byte the
        # pinned ones.
        assert {
            r["brain"]: {"brain": r["brain_digest"], "faults": r["fault_digest"]}
            for r in results
        } == DIGESTS

    def test_drill_rows_cover_every_builtin(self, results):
        assert [r["brain"] for r in results] == list(BRAIN_DRILL_BRAINS)

    @pytest.mark.parametrize("brain", BRAIN_DRILL_BRAINS)
    def test_brain_keeps_every_deadline(self, results, brain):
        (row,) = [r for r in results if r["brain"] == brain]
        # No brain may trade the deadline job away for throughput.
        assert row["deadline_hit_rate"] == 1.0, row
        # The ratio is the storm over the shared fault-free baseline.
        assert row["goodput_ratio"] == pytest.approx(
            row["storm_goodput"] / row["baseline_goodput"], rel=1e-5
        )

    def test_static_is_the_idle_baseline(self, results):
        # The static row is the no-brain baseline: no decisions, no log.
        (static,) = [r for r in results if r["brain"] == "static"]
        assert static["brain_digest"] is None and static["entries"] == []
        for count in ("migrations", "shrinks", "grows", "declined"):
            assert static[count] == 0, (count, static)

    def test_health_migrate_acts_on_the_storm(self, results):
        # A win with an empty decision log would not be the brain's doing.
        (row,) = [r for r in results if r["brain"] == "health-migrate"]
        assert row["migrations"] >= 1 and row["entries"], row

    def test_unknown_brain_is_one_config_error(self):
        with pytest.raises(ConfigError, match="unknown brain 'nope'; registered: "):
            run_brain_drills(["nope"])

    def test_pool_width_invariance(self):
        from repro.api.config import ExecConfig

        for brain in BRAIN_DRILL_BRAINS:
            config = brain_storm_config(brain)
            pooled = run_sched(dataclasses.replace(config, exec=ExecConfig(jobs=2)))
            assert pooled == run_sched(config), brain

    def test_aliases_resolve_in_drills(self):
        results = run_brain_drills(["health"])
        assert results[0]["brain"] == "health-migrate"
