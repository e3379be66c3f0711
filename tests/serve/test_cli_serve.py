"""``repro serve`` / ``repro submit`` CLI: happy paths and failure modes."""

import json
import os
import pathlib
import subprocess
import sys

from repro.api.cli import main

REPO = pathlib.Path(__file__).resolve().parent.parent.parent
SERVE_CONFIG = REPO / "examples" / "configs" / "serve_smoke.json"
DAY_OPS = REPO / "examples" / "serve" / "day_ops.jsonl"


def write_script(tmp_path, ops, name="ops.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(json.dumps(op) for op in ops) + "\n")
    return path


class TestServe:
    def test_scripted_run_prints_the_payload_table(self, tmp_path, capsys):
        assert main([
            "serve", "--config", str(SERVE_CONFIG),
            "--script", str(DAY_OPS), "--state-dir", str(tmp_path / "s"),
        ]) == 0
        out = capsys.readouterr().out
        for job in ("resnet-prod", "vgg-batch", "topk-sweep", "xfmr-deadline"):
            assert job in out

    def test_json_payload_carries_serve_meta(self, tmp_path, capsys):
        assert main([
            "serve", "--config", str(SERVE_CONFIG), "--json",
            "--script", str(DAY_OPS), "--state-dir", str(tmp_path / "s"),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        serve = payload["meta"]["serve"]
        assert serve["submitted"] == 4 and serve["rejected"] == 0
        assert serve["digest"]
        assert serve["series"]  # incremental BENCH trajectory points

    def test_out_writes_payload_file(self, tmp_path, capsys):
        out_path = tmp_path / "payload.json"
        assert main([
            "serve", "--config", str(SERVE_CONFIG),
            "--script", str(DAY_OPS), "--state-dir", str(tmp_path / "s"),
            "--out", str(out_path),
        ]) == 0
        assert "payload written" in capsys.readouterr().out
        assert json.loads(out_path.read_text())["meta"]["serve"]["submitted"] == 4

    def test_restart_against_same_state_dir_is_idempotent(self, tmp_path, capsys):
        state = tmp_path / "s"
        argv = [
            "serve", "--config", str(SERVE_CONFIG), "--json",
            "--script", str(DAY_OPS), "--state-dir", str(state),
        ]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        # Same ops, same state dir: everything dedups, payload identical.
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == first

    def test_restart_over_old_format_snapshots_replays_the_journal(
        self, tmp_path, capsys
    ):
        state = tmp_path / "s"
        argv = [
            "serve", "--config", str(SERVE_CONFIG), "--json",
            "--script", str(DAY_OPS), "--state-dir", str(state),
        ]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        slots = sorted(state.glob("snap-*.bin"))
        assert slots
        for slot in slots:  # a pre-RPSNAP02 daemon's slots
            slot.write_bytes(b"RPSNAP01" + slot.read_bytes()[8:])
        assert main(argv) == 0  # one-line-or-nothing: no traceback, exit 0
        assert json.loads(capsys.readouterr().out) == first

    def test_set_overrides_reach_the_daemon(self, tmp_path, capsys):
        assert main([
            "serve", "--config", str(SERVE_CONFIG), "--json",
            "--script", str(DAY_OPS), "--state-dir", str(tmp_path / "s"),
            "--set", "name=renamed", "--set", "snapshot_every=2",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bench"] == "serve_renamed"


class TestDrill:
    def test_drill_passes_at_every_default_point(self, tmp_path, capsys):
        assert main([
            "serve", "--config", str(SERVE_CONFIG), "--drill",
            "--script", str(DAY_OPS), "--state-dir", str(tmp_path / "d"),
        ]) == 0
        out = capsys.readouterr().out
        for point in ("tick:2", "snapshot:1", "append:3"):
            assert f"ok: kill at {point}" in out
        assert "all_match=True" in out and "lost_acked_total=0" in out

    def test_drill_json_report(self, tmp_path, capsys):
        out_path = tmp_path / "drill.json"
        assert main([
            "serve", "--config", str(SERVE_CONFIG), "--drill",
            "--kill-at", "tick:1", "--script", str(DAY_OPS),
            "--state-dir", str(tmp_path / "d"), "--out", str(out_path),
        ]) == 0
        report = json.loads(out_path.read_text())
        assert report["all_match"] is True
        assert report["lost_acked_total"] == 0
        assert [p["point"] for p in report["points"]] == ["tick:1"]


class TestServeFailureModes:
    def test_malformed_jsonl_submission(self, tmp_path, capsys):
        script = tmp_path / "bad.jsonl"
        script.write_text('{"op": "submit", "job": {"name": "x"}}\n{nope\n')
        assert main([
            "serve", "--config", str(SERVE_CONFIG),
            "--script", str(script), "--state-dir", str(tmp_path / "s"),
        ]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "invalid JSON" in err

    def test_unknown_job_key_in_script(self, tmp_path, capsys):
        script = write_script(tmp_path, [
            {"op": "submit", "job": {"name": "x", "iterationz": 5}},
        ])
        assert main([
            "serve", "--config", str(SERVE_CONFIG),
            "--script", str(script), "--state-dir", str(tmp_path / "s"),
        ]) == 2
        err = capsys.readouterr().err
        assert "iterationz" in err

    def test_queue_full_rejection(self, tmp_path, capsys):
        script = write_script(tmp_path, [
            {"op": "submit", "job": {"name": "a"}},
            {"op": "submit", "job": {"name": "b"}},
        ])
        assert main([
            "serve", "--config", str(SERVE_CONFIG), "--set", "queue_limit=1",
            "--script", str(script), "--state-dir", str(tmp_path / "s"),
        ]) == 2
        err = capsys.readouterr().err
        assert "queue full" in err and "queue_limit=1" in err

    def test_missing_config(self, capsys):
        assert main(["serve", "--config", "/nonexistent/cfg.json"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_bad_kill_spec(self, tmp_path, capsys):
        assert main([
            "serve", "--config", str(SERVE_CONFIG), "--kill-at", "reboot:1",
            "--script", str(DAY_OPS), "--state-dir", str(tmp_path / "s"),
        ]) == 2
        assert "bad kill point" in capsys.readouterr().err

    def test_socket_excludes_drill(self, tmp_path, capsys):
        assert main([
            "serve", "--config", str(SERVE_CONFIG), "--drill",
            "--socket", str(tmp_path / "sock"),
        ]) == 2
        assert "--socket cannot be combined" in capsys.readouterr().err


class TestSubmitFailureModes:
    def test_connect_retry_exhaustion(self, tmp_path, capsys):
        assert main([
            "submit", "--socket", str(tmp_path / "no-daemon.sock"),
            "--op", '{"op": "status"}',
            "--retries", "2", "--backoff", "0.01",
        ]) == 2
        err = capsys.readouterr().err
        assert "2 attempt(s)" in err and "could not connect" in err

    def test_bad_job_json(self, capsys):
        assert main(["submit", "--socket", "/tmp/x.sock", "--job", "{nope"]) == 2
        assert "--job is not valid JSON" in capsys.readouterr().err

    def test_non_object_op(self, capsys):
        assert main(["submit", "--socket", "/tmp/x.sock", "--op", "[1,2]"]) == 2
        assert "must be a JSON object" in capsys.readouterr().err

    def test_no_ops_at_all(self, capsys):
        assert main(["submit", "--socket", "/tmp/x.sock"]) == 2
        assert "at least one" in capsys.readouterr().err

    def test_missing_ops_file(self, capsys):
        assert main([
            "submit", "--socket", "/tmp/x.sock", "--file", "/nonexistent.jsonl",
        ]) == 2
        assert "not found" in capsys.readouterr().err


class TestNoTracebacks:
    def test_failures_are_one_line_without_traceback(self, tmp_path):
        """Serve/submit user errors: one ``error:`` line, exit 2, no trace."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
        bad_script = tmp_path / "bad.jsonl"
        bad_script.write_text("{nope\n")
        state = str(tmp_path / "s")
        for argv in (
            ["serve", "--config", "/nonexistent/cfg.json"],
            ["serve", "--config", str(SERVE_CONFIG),
             "--script", str(bad_script), "--state-dir", state],
            ["serve", "--config", str(SERVE_CONFIG), "--kill-at", "reboot:1",
             "--script", str(DAY_OPS), "--state-dir", state],
            ["submit", "--socket", str(tmp_path / "no.sock"),
             "--op", '{"op": "status"}', "--retries", "1", "--backoff", "0.01"],
            ["submit", "--socket", str(tmp_path / "no.sock"), "--job", "{nope"],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                capture_output=True, text=True, timeout=120, env=env,
            )
            assert proc.returncode == 2, argv
            assert "Traceback" not in proc.stderr, argv
            lines = [line for line in proc.stderr.splitlines() if line.strip()]
            assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
