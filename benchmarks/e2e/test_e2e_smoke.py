"""Smoke test of the e2e benchmark: the command runs, its output matches
``BENCHMARK.json``, and a wrong reference makes it fail."""

import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 2021  # the seed reference.json records smoke values for


def _e2e(*args):
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    done = _e2e("run", "--smoke", "--traced", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())


def test_benchmark_json_is_within_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = [w["name"] for w in BENCHMARK["workloads"]]
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics)
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_every_workload_reports_exactly_the_listed_metrics(smoke):
    assert list(smoke["workloads"]) == [w["name"] for w in BENCHMARK["workloads"]]
    for entry in smoke["workloads"].values():
        assert list(entry["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
        assert all(value > 0 for value in entry["metrics"].values())
        assert list(entry["per_layer"]) == [m["name"] for m in BENCHMARK["per_layer"]]
        assert entry["attempted"] >= 1 and entry["failed"] == 0


def test_every_per_layer_metric_is_measured_on_some_workload(smoke):
    measured = {
        name
        for entry in smoke["workloads"].values()
        for name, value in entry["per_layer"].items()
        if value != 0
    }
    # Counts that are legitimately zero on a healthy run.
    never = {m["name"] for m in BENCHMARK["per_layer"]} - measured
    assert never <= {"serve.daemon.rejected"}


def test_a_wrong_reference_loss_fails_the_command(tmp_path):
    reference = json.loads((HERE / "reference.json").read_text())
    reference["smoke"]["train-compute"][str(SEED)]["loss"] += 1.0
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(reference))
    done = _e2e("run", "--smoke", "--only", "train-compute", "--reference", str(bad))
    assert done.returncode != 0
    assert "loss_reference" in done.stdout
