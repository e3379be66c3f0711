"""The ``python -m repro`` CLI: run / list / experiments."""

import json
import os
import pathlib
import subprocess
import sys

from repro.api.cli import main
from repro.utils.bench import validate_bench_payload

REPO = pathlib.Path(__file__).resolve().parent.parent.parent
SMOKE_CONFIG = REPO / "examples" / "configs" / "smoke.json"
SCHED_CONFIG = REPO / "examples" / "configs" / "multi_tenant.json"
SERVE_CONFIG = REPO / "examples" / "configs" / "serve_smoke.json"


class TestList:
    def test_list_schemes(self, capsys):
        assert main(["list", "schemes"]) == 0
        out = capsys.readouterr().out
        for name in ("dense", "mstopk", "gtopk", "2dtar"):
            assert name in out
        assert "aliases:" in out  # discovery shows alias names too

    def test_list_all_groups(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for header in ("schemes:", "compressors:", "models:", "clusters:",
                       "policies:", "faults:", "brains:", "experiments:"):
            assert header in out
        assert "backends:" not in out
        assert "Fig. 10" in out
        assert "tencent" in out

    def test_list_policies_matches_registry(self, capsys):
        from repro.sched.policies import POLICIES

        assert main(["list", "policies"]) == 0
        out = capsys.readouterr().out
        for name in POLICIES.available():
            assert name in out

    def test_list_experiments_matches_runner(self, capsys):
        from repro.experiments.runner import EXPERIMENTS

        assert main(["list", "experiments"]) == 0
        out = capsys.readouterr().out
        for name, _ in EXPERIMENTS:
            assert name in out


class TestRun:
    def test_run_smoke_config_table(self, capsys):
        assert main(["run", "--config", str(SMOKE_CONFIG)]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out and "final_loss" in out

    def test_run_json_payload_passes_schema(self, capsys):
        assert main(["run", "--config", str(SMOKE_CONFIG), "--json"]) == 0
        payload = validate_bench_payload(json.loads(capsys.readouterr().out))
        assert payload["schema_version"] == 1
        assert payload["structured"] is True
        assert payload["meta"]["scheme"] == "mstopk"
        assert len(payload["rows"]) == 1
        assert len(payload["rows"][0]) == len(payload["columns"])

    def test_run_set_overrides(self, capsys):
        assert main([
            "run", "--config", str(SMOKE_CONFIG), "--json",
            "--set", "comm.scheme=dense", "--set", "name=cli-dense",
        ]) == 0
        payload = validate_bench_payload(json.loads(capsys.readouterr().out))
        assert payload["bench"] == "run_cli-dense"
        assert payload["meta"]["scheme"] == "dense"

    def test_run_out_writes_payload(self, tmp_path, capsys):
        out_path = tmp_path / "sub" / "payload.json"
        assert main(["run", "--config", str(SMOKE_CONFIG), "--out", str(out_path)]) == 0
        assert out_path.exists()
        payload = json.loads(out_path.read_text())
        assert payload["schema_version"] == 1
        assert "payload written" in capsys.readouterr().out

    def test_run_unknown_scheme_fails_actionably(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"comm": {"scheme": "warp"}}')
        assert main(["run", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "warp" in err and "mstopk" in err

    def test_run_missing_config_fails(self, capsys):
        assert main(["run", "--config", "/nonexistent/cfg.json"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_bad_override_fails(self, capsys):
        assert main([
            "run", "--config", str(SMOKE_CONFIG), "--set", "comm.densty=0.1",
        ]) == 2
        assert "densty" in capsys.readouterr().err

    def test_dense_plus_compressor_fails_cleanly(self, capsys):
        """Build-time config mistakes exit 2 with a message, no traceback."""
        assert main([
            "run", "--config", str(SMOKE_CONFIG),
            "--set", "comm.scheme=dense", "--set", "comm.compressor=mstopk",
        ]) == 2
        assert "does not accept a compressor" in capsys.readouterr().err

    def test_malformed_set_without_equals_fails(self, capsys):
        assert main([
            "run", "--config", str(SMOKE_CONFIG), "--set", "comm.density",
        ]) == 2
        err = capsys.readouterr().err
        assert "key=value" in err

    def test_failure_is_one_line_without_traceback(self, tmp_path):
        """User errors reach the shell as one actionable line, no traceback."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
        hostile_ops = tmp_path / "hostile.jsonl"
        hostile_ops.write_text(
            '{"op": "submit", "job": {"name": "b", "payload": {"model": 3}}}\n'
        )
        for argv in (
            ["run", "--config", "/nonexistent/cfg.json"],
            ["run", "--config", str(SMOKE_CONFIG), "--set", "comm.scheme=warp"],
            ["run", "--config", str(SMOKE_CONFIG), "--set", "oops"],
            ["sched", "--config", "/nonexistent/cfg.json"],
            ["sched", "--config", str(SCHED_CONFIG), "--set", "policies.0=warp"],
            # Wrong-typed scalars: one line from the loader, not a
            # TypeError out of validate().
            ["run", "--config", str(SMOKE_CONFIG), "--set", "comm.density=hi"],
            ["sched", "--config", str(SCHED_CONFIG), "--set", "cluster.num_nodes=four"],
            ["serve", "--config", str(SERVE_CONFIG), "--set", "queue_limit=many"],
            # Wrong-typed values below the top level: list elements and
            # nested sections are type-checked too (these used to escape
            # as AttributeError tracebacks).
            ["sched", "--config", str(SCHED_CONFIG), "--set", "policies.0=3"],
            ["sched", "--config", str(SCHED_CONFIG), "--set", "jobs.0.payload=3"],
            ["sched", "--config", str(SCHED_CONFIG), "--set", "brain.interval=NaN"],
            ["serve", "--config", str(SERVE_CONFIG), "--script", str(hostile_ops),
             "--state-dir", str(tmp_path / "state")],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                capture_output=True, text=True, timeout=120, env=env,
            )
            assert proc.returncode == 2, argv
            assert "Traceback" not in proc.stderr, argv
            lines = [line for line in proc.stderr.splitlines() if line.strip()]
            assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


class TestSched:
    def test_sched_table_output(self, capsys):
        assert main(["sched", "--config", str(SCHED_CONFIG)]) == 0
        out = capsys.readouterr().out
        for expected in ("bin-pack", "spread", "network-aware",
                         "resnet-prod", "contention_slowdown"):
            assert expected in out

    def test_sched_json_payload_passes_schema(self, capsys):
        assert main(["sched", "--config", str(SCHED_CONFIG), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["structured"] is True
        assert payload["bench"] == "sched_multi-tenant"
        policies = payload["meta"]["policies"]
        assert len(policies) >= 2  # the shipped scenario compares policies
        jobs = {row[payload["columns"].index("job")] for row in payload["rows"]}
        assert len(jobs) >= 3  # ... over at least three jobs
        assert len(payload["rows"]) == len(jobs) * len(policies)
        for row in payload["rows"]:
            assert len(row) == len(payload["columns"])

    def test_sched_set_overrides_list_entries(self, capsys):
        assert main([
            "sched", "--config", str(SCHED_CONFIG), "--json",
            "--set", "policies=[\"spread\"]", "--set", "jobs.0.priority=9",
            "--set", "name=cli-sched",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bench"] == "sched_cli-sched"
        assert payload["meta"]["policies"] == ["spread"]

    def test_sched_out_writes_payload(self, tmp_path, capsys):
        out_path = tmp_path / "sub" / "sched.json"
        assert main([
            "sched", "--config", str(SCHED_CONFIG), "--out", str(out_path),
        ]) == 0
        assert out_path.exists()
        payload = json.loads(out_path.read_text())
        assert payload["schema_version"] == 1
        assert "payload written" in capsys.readouterr().out

    def test_sched_unknown_policy_fails_actionably(self, capsys):
        assert main([
            "sched", "--config", str(SCHED_CONFIG), "--set", "policies.0=warp",
        ]) == 2
        err = capsys.readouterr().err
        assert "warp" in err and "bin-pack" in err

    def test_sched_bad_list_index_fails_actionably(self, capsys):
        assert main([
            "sched", "--config", str(SCHED_CONFIG), "--set", "jobs.99.priority=1",
        ]) == 2
        assert "list index" in capsys.readouterr().err

    def test_sched_missing_config_fails(self, capsys):
        assert main(["sched", "--config", "/nonexistent/cfg.json"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_sched_unknown_job_key_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"jobs": [{"name": "a", "speed": 9}]}')
        assert main(["sched", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "speed" in err and "accepted keys" in err


class TestExperiments:
    def test_experiments_only_filter(self, capsys):
        assert main(["experiments", "--only", "Table 1"]) == 0
        out = capsys.readouterr().out
        assert "p3.16xlarge" in out

    def test_experiments_fast_flag(self, capsys):
        assert main(["experiments", "--only", "Fig. 6", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "V100" in out


class TestEntryPoint:
    def test_no_args_prints_help(self, capsys):
        assert main([]) == 2
        assert "run" in capsys.readouterr().out

    def test_python_dash_m_repro(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list", "schemes"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "mstopk" in proc.stdout

    def test_python_dash_m_repro_run(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--config", str(SMOKE_CONFIG),
             "--json"],
            capture_output=True, text=True, timeout=180, env=env,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        payload = json.loads(proc.stdout)
        assert payload["schema_version"] == 1
