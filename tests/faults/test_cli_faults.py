"""CLI surface of the fault subsystem: discovery, drills, failure modes.

Every user mistake — unknown fault name, malformed ``faults.*`` --set,
corrupt plan file, faults without an elastic section — must reach the
shell as one actionable ``error:`` line and exit code 2, never a
traceback.
"""

import json
import os
import pathlib
import subprocess
import sys

from repro.api.cli import main
from repro.faults.registry import FAULTS

# Sibling module; pytest's prepend import mode puts this directory on
# sys.path, so the CLI is held to the drill's own pins.
from test_drill import POLICY_DIGESTS, SCHEME_DIGESTS

REPO = pathlib.Path(__file__).resolve().parent.parent.parent
DRILL_CONFIG = REPO / "examples" / "configs" / "fault_drill.json"
GRAY_STORM_CONFIG = REPO / "examples" / "configs" / "gray_storm.json"
SMOKE_CONFIG = REPO / "examples" / "configs" / "smoke.json"


class TestDiscovery:
    def test_list_faults(self, capsys):
        assert main(["list", "faults"]) == 0
        out = capsys.readouterr().out
        for name in FAULTS.available():
            assert name in out
        # This PR's additions, by name (the loop above only proves the
        # registry and the listing agree).
        assert "gray-net" in out and "disk-slow" in out
        assert "aliases:" in out  # e.g. crash, spot-storm

    def test_list_policies_includes_fault_aware(self, capsys):
        assert main(["list", "policies"]) == 0
        out = capsys.readouterr().out
        assert "fault-aware" in out
        assert "health-aware" in out  # its alias

    def test_list_all_includes_faults_group(self, capsys):
        assert main(["list"]) == 0
        assert "faults:" in capsys.readouterr().out


class TestDrillRun:
    def test_drill_config_runs_and_passes_schema(self, capsys):
        assert main(["run", "--config", str(DRILL_CONFIG), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        faults = payload["meta"]["faults"]
        assert faults["summary"]["injected"] == 7
        assert faults["summary"]["recovered"] == 7
        # The fail-slow disk window covers two checkpoint writes, both of
        # which blow the 4 s budget and retry on the fallback slot.
        assert faults["summary"]["checkpoint_retries"] == 2
        phases = {entry["phase"] for entry in faults["entries"]}
        assert {"inject", "detect", "recover"} <= phases
        kinds = {entry["kind"] for entry in faults["entries"]}
        assert {"gray-net", "disk-slow"} <= kinds
        # Config file -> CLI -> facade -> ledger: the log the mstopk
        # drill pins.
        assert faults["summary"]["digest"] == SCHEME_DIGESTS["mstopk"]

    def test_drill_json_is_byte_identical_run_to_run(self, capsys):
        """The seeded storm's payload, fault log included, carries no
        wall-clock or ordering noise: two runs print the same bytes."""
        outputs = []
        for _ in range(2):
            assert main(["run", "--config", str(DRILL_CONFIG), "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_override_adds_faults_to_plain_config(self, capsys):
        # A config with no faults section grows one entirely from --set:
        # the whole-object form for the plan, plus the elastic section the
        # error message recommends.
        assert main([
            "run", "--config", str(SMOKE_CONFIG),
            "--set", 'faults={"events":[{"kind":"crash","at":10}]}',
            "--set", "elastic.schedule=none",
        ]) == 0
        out = capsys.readouterr().out
        assert "fault_recoveries" in out

    def test_override_edits_existing_event(self, capsys):
        # Dotted list indices reach into the plan; aliases canonicalise.
        assert main([
            "run", "--config", str(DRILL_CONFIG),
            "--set", "faults.events.4.kind=crash",
            "--set", "faults.events.4.node=1",
        ]) == 0
        assert "fault_recoveries" in capsys.readouterr().out


class TestJobsWidthInvariance:
    def test_gray_storm_sched_bit_identical_across_jobs(self):
        """The committed gray storm: serial vs 4-worker pool, byte for byte,
        and every policy's fault log the policy drill pins."""
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
        )
        outputs = []
        for jobs in ("1", "4"):
            proc = subprocess.run(
                [
                    sys.executable, "-m", "repro", "sched",
                    "--config", str(GRAY_STORM_CONFIG), "--jobs", jobs, "--json",
                ],
                capture_output=True, text=True, timeout=300, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        faults = json.loads(outputs[0])["meta"]["faults"]
        assert {policy: log["digest"] for policy, log in faults.items()} == POLICY_DIGESTS


class TestFailureModes:
    def test_unknown_fault_name(self, capsys):
        assert main([
            "run", "--config", str(DRILL_CONFIG),
            "--set", "faults.events.0.kind=bogus",
        ]) == 2
        err = capsys.readouterr().err
        assert "unknown fault 'bogus'" in err
        assert "node-crash" in err  # the registered alternatives are listed

    def test_malformed_fault_parameter(self, capsys):
        assert main([
            "run", "--config", str(DRILL_CONFIG),
            "--set", "faults.events.0.scale=2.0",
        ]) == 2
        assert "scale must be in" in capsys.readouterr().err

    def test_unknown_jitter_distribution(self, capsys):
        assert main([
            "run", "--config", str(DRILL_CONFIG),
            "--set", "faults.events.3.jitter_dist=weird",
        ]) == 2
        err = capsys.readouterr().err
        assert "unknown jitter distribution" in err
        assert "exp" in err and "lognormal" in err  # accepted values listed

    def test_out_of_range_loss_rate(self, capsys):
        assert main([
            "run", "--config", str(DRILL_CONFIG),
            "--set", "faults.events.3.loss_rate=1.0",
        ]) == 2
        assert "loss_rate must be in [0, 1)" in capsys.readouterr().err

    def test_negative_quarantine_threshold(self, capsys):
        assert main([
            "sched", "--config", str(GRAY_STORM_CONFIG),
            "--set", "faults.quarantine_threshold=-1",
        ]) == 2
        assert "quarantine_threshold must be > 0" in capsys.readouterr().err

    def test_disk_slow_cannot_target_sched(self, capsys):
        # "disk-slow without checkpointing": the scheduler's closed form
        # has no checkpoint writes, so the kind is rejected at load time.
        assert main([
            "sched", "--config", str(GRAY_STORM_CONFIG),
            "--set", "faults.events.0.kind=disk-slow",
            "--set", "faults.events.0.stretch=4.0",
        ]) == 2
        assert "cannot target" in capsys.readouterr().err

    def test_faults_require_elastic_section(self, capsys):
        assert main([
            "run", "--config", str(SMOKE_CONFIG),
            "--set", 'faults={"events":[{"kind":"crash","at":10}]}',
        ]) == 2
        assert "elastic" in capsys.readouterr().err

    def test_corrupt_plan_file(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text("{broken json")
        config = tmp_path / "cfg.json"
        data = json.loads(DRILL_CONFIG.read_text())
        data["faults"] = {"plan": str(plan)}
        config.write_text(json.dumps(data))
        assert main(["run", "--config", str(config)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_plan_file(self, capsys):
        assert main([
            "run", "--config", str(DRILL_CONFIG),
            "--set", "faults.events=[]",
            "--set", "faults.plan=/nonexistent/plan.json",
        ]) == 2
        assert "not found" in capsys.readouterr().err

    def test_failures_are_one_line_no_traceback(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text("[{]")
        config = tmp_path / "cfg.json"
        data = json.loads(DRILL_CONFIG.read_text())
        data["faults"] = {"plan": str(plan)}
        config.write_text(json.dumps(data))

        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
        )
        for argv in (
            ["run", "--config", str(DRILL_CONFIG),
             "--set", "faults.events.0.kind=bogus"],
            ["run", "--config", str(DRILL_CONFIG),
             "--set", "faults.events.6.fraction=7"],
            ["run", "--config", str(DRILL_CONFIG),
             "--set", "faults.events.3.jitter_dist=weird"],
            ["run", "--config", str(DRILL_CONFIG),
             "--set", "faults.events.3.loss_rate=-0.5"],
            ["sched", "--config", str(GRAY_STORM_CONFIG),
             "--set", "faults.quarantine_threshold=-1"],
            ["sched", "--config", str(GRAY_STORM_CONFIG),
             "--set", "faults.events.0.kind=disk-slow",
             "--set", "faults.events.0.stretch=4.0"],
            ["run", "--config", str(config)],
            ["sched", "--config", str(REPO / "examples" / "configs" / "multi_tenant.json"),
             "--set", "faults.events.0.kind=checkpoint-corrupt",
             "--set", "faults.events.0.at=10"],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                capture_output=True, text=True, timeout=120, env=env,
            )
            assert proc.returncode == 2, argv
            assert "Traceback" not in proc.stderr, argv
            lines = [line for line in proc.stderr.splitlines() if line.strip()]
            assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
