"""benchmarks/trajectory.py: BENCH payloads -> per-commit metric series."""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest
from check_regression import GATES

REPO = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = REPO / "benchmarks" / "trajectory.py"


def write_bench(results_dir: pathlib.Path, name: str, value: float) -> None:
    payload = {
        "bench": name,
        "schema_version": 1,
        "structured": True,
        "columns": ["scheme", "speedup", "ok"],
        "rows": [["dense", value, True], ["mstopk", value * 2, False]],
        "text": f"{name}\n",
        "meta": {"cluster": "4x2"},
    }
    (results_dir / f"BENCH_{name}.json").write_text(json.dumps(payload))


def run_trajectory(results_dir: pathlib.Path, commit: str, *flags: str):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--results-dir", str(results_dir),
         "--commit", commit, *flags],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads((results_dir / "TRAJECTORY.json").read_text())


class TestCollect:
    def test_collects_series_keyed_by_commit(self, tmp_path):
        write_bench(tmp_path, "alpha", 2.0)
        write_bench(tmp_path, "beta", 5.0)
        trajectory = run_trajectory(tmp_path, "abc123")
        assert trajectory["schema_version"] == 1
        assert trajectory["commits"] == ["abc123"]
        assert set(trajectory["benches"]) == {"alpha", "beta"}
        entry = trajectory["benches"]["alpha"]["abc123"]
        assert entry["structured"] is True
        assert entry["rows"] == [["dense", 2.0, True], ["mstopk", 4.0, False]]
        # Numeric means skip strings and bools.
        assert entry["metrics"] == {"speedup": pytest.approx(3.0)}
        assert entry["meta"] == {"cluster": "4x2"}

    def test_merges_across_commits(self, tmp_path):
        write_bench(tmp_path, "alpha", 2.0)
        run_trajectory(tmp_path, "c1")
        write_bench(tmp_path, "alpha", 3.0)
        trajectory = run_trajectory(tmp_path, "c2")
        assert trajectory["commits"] == ["c1", "c2"]
        series = trajectory["benches"]["alpha"]
        assert series["c1"]["metrics"]["speedup"] == pytest.approx(3.0)
        assert series["c2"]["metrics"]["speedup"] == pytest.approx(4.5)

    def test_same_commit_is_idempotent(self, tmp_path):
        write_bench(tmp_path, "alpha", 2.0)
        run_trajectory(tmp_path, "c1")
        write_bench(tmp_path, "alpha", 9.0)
        trajectory = run_trajectory(tmp_path, "c1")
        assert trajectory["commits"] == ["c1"]
        assert trajectory["benches"]["alpha"]["c1"]["metrics"]["speedup"] == (
            pytest.approx(13.5)
        )

    def test_trajectory_file_not_collected_as_bench(self, tmp_path):
        write_bench(tmp_path, "alpha", 1.0)
        run_trajectory(tmp_path, "c1")
        trajectory = run_trajectory(tmp_path, "c2")
        assert set(trajectory["benches"]) == {"alpha"}

    def test_committed_baselines_are_never_folded_in(self, tmp_path):
        """The gated benches' baselines were measured at older commits:
        skipped by name (the gates table's keys), with no flag, while
        their fresh ``_run`` twins fold in on request."""
        for bench in GATES:
            shutil.copy(REPO / "results" / f"BENCH_{bench}.json", tmp_path)
        write_bench(tmp_path, "fresh", 1.0)
        write_bench(tmp_path, "brain_run", 2.0)
        assert set(run_trajectory(tmp_path, "c1")["benches"]) == {"fresh"}
        assert set(run_trajectory(tmp_path, "c2", "--include-runs")["benches"]) == {
            "fresh", "brain_run",
        }

    def test_run_payloads_skipped_by_default(self, tmp_path):
        """BENCH_*_run.json fresh measurements shadow their committed
        baselines (same bench name), so they are skipped by default."""
        write_bench(tmp_path, "alpha", 1.0)
        write_bench(tmp_path, "alpha_run", 9.0)
        trajectory = run_trajectory(tmp_path, "c1")
        assert set(trajectory["benches"]) == {"alpha"}

    def test_include_runs_opts_back_in(self, tmp_path):
        write_bench(tmp_path, "alpha", 1.0)
        write_bench(tmp_path, "alpha_run", 9.0)
        trajectory = run_trajectory(tmp_path, "c1", "--include-runs")
        assert set(trajectory["benches"]) == {"alpha", "alpha_run"}

    def test_no_payloads_errors(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), "--results-dir", str(tmp_path),
             "--commit", "c1"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode != 0
        assert "no BENCH_*.json" in proc.stderr

    def test_committed_trajectory_seed_is_valid(self):
        """results/TRAJECTORY.json (committed) parses and has the seed."""
        trajectory = json.loads((REPO / "results" / "TRAJECTORY.json").read_text())
        assert trajectory["schema_version"] == 1
        assert trajectory["commits"]
        assert "trace_replay_run" in trajectory["benches"]
