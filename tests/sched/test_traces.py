"""Trace ingestion, synthesis and replay (``repro.sched.traces``).

The acceptance bars pinned here:

* ingestion round-trips losslessly (JSONL, CSV directory, and the
  spec <-> trace fixed point) — the on-disk format loses nothing the
  scheduler uses;
* the synthetic generator is a pure function of its config (same seed
  => byte-identical trace) and matches its advertised shapes;
* the closed-form fast path and the trainer-backed payload path agree:
  carrying a :class:`~repro.sched.job.TrainPayload` never perturbs a
  single scheduling decision, it only appends training results;
* a malformed trace dies as one actionable ``error:`` line with exit
  code 2 — never a traceback — through the real CLI;
* ``SchedConfig.trace`` threads through config, facade, CLI and the
  ``repro.exec`` pool with bit-identical results at any ``--jobs``.
"""

import csv
import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.api.cli import main
from repro.api.config import SchedConfig
from repro.api.facade import run_sched
from repro.sched.job import JobSpec, TrainPayload
from repro.sched.scheduler import MultiTenantScheduler
from repro.sched.traces import (
    DISTRIBUTION_COLUMNS,
    SyntheticTraceConfig,
    Trace,
    TraceError,
    TraceJob,
    TraceTask,
    distribution_rows,
    generate_trace,
    job_specs_for,
    load_trace,
    payload_for_trace_reports,
    trace_stats,
    trace_to_specs,
    write_trace,
    write_trace_csv,
)
from repro.utils.bench import validate_bench_payload
from repro.utils.seeding import derive_seed

REPO = pathlib.Path(__file__).resolve().parent.parent.parent
SAMPLE_TRACE = REPO / "examples" / "traces" / "sample_day.jsonl"
TRACE_CONFIG = REPO / "examples" / "configs" / "trace_replay.json"


def _user_of(job_name: str) -> str:
    """Deterministic PAI-style hashed submitter id for one job."""
    return f"u{derive_seed(0, job_name) & 0xFFFF:04x}"


def specs_to_trace(specs: list[JobSpec]) -> Trace:
    """Serialize job specs back into trace rows (inverse of
    :func:`trace_to_specs` for every scheduling-relevant field)."""
    trace = Trace()
    for spec in specs:
        trace.jobs.append(
            TraceJob(
                job_name=spec.name,
                user=_user_of(spec.name),
                submit_time=spec.arrival_seconds,
                priority=spec.priority,
                preference=spec.preference,
                deadline=spec.deadline_seconds,
                workload=spec.profile,
                scheme=spec.scheme,
                density=spec.density,
            )
        )
        trace.tasks.append(
            TraceTask(
                job_name=spec.name,
                inst_num=spec.max_nodes,
                min_inst_num=spec.min_nodes,
                plan_gpu=(
                    spec.gpus_per_node * 100
                    if spec.gpus_per_node is not None
                    else None
                ),
                resolution=spec.resolution,
                local_batch=spec.local_batch,
                iterations=spec.iterations,
                payload=(
                    dataclasses.asdict(spec.payload)
                    if spec.payload is not None
                    else None
                ),
            )
        )
    return trace


def small_trace(num_jobs: int = 40, seed: int = 3, **overrides) -> Trace:
    return generate_trace(
        SyntheticTraceConfig(num_jobs=num_jobs, seed=seed, **overrides)
    )


# ---------------------------------------------------------------------------
# Ingestion round-trips
# ---------------------------------------------------------------------------


class TestRoundTrip:
    def test_jsonl_round_trip_lossless(self, tmp_path):
        trace = small_trace(payload_fraction=0.2)
        path = write_trace(trace, tmp_path / "day.jsonl")
        loaded = load_trace(path)
        assert loaded.jobs == trace.jobs
        assert loaded.tasks == trace.tasks
        assert loaded.instances == trace.instances

    def test_csv_round_trip_lossless(self, tmp_path):
        trace = small_trace(payload_fraction=0.2)
        directory = write_trace_csv(trace, tmp_path / "day_csv")
        assert (directory / "job.csv").exists()
        assert (directory / "task.csv").exists()
        loaded = load_trace(directory)
        assert loaded.jobs == trace.jobs
        assert loaded.tasks == trace.tasks

    def test_spec_trace_fixed_point(self):
        """trace -> specs -> trace -> specs is the identity on specs."""
        specs = trace_to_specs(small_trace(payload_fraction=0.2))
        again = trace_to_specs(specs_to_trace(specs))
        assert again == specs

    def test_sample_day_is_loadable_and_schedulable(self):
        """The bundled example trace stays valid (CI replays it)."""
        trace = load_trace(SAMPLE_TRACE)
        specs = trace_to_specs(trace)
        assert len(specs) == len(trace.jobs) == 120
        assert any(s.payload is not None for s in specs)

    def test_jsonl_skips_blank_and_comment_lines(self, tmp_path):
        path = write_trace(small_trace(num_jobs=5), tmp_path / "day.jsonl")
        text = "# a comment\n\n" + path.read_text()
        path.write_text(text)
        assert len(load_trace(path).jobs) == 5

    def test_stats_counts(self):
        trace = small_trace(payload_fraction=0.5)
        stats = trace_stats(trace)
        assert stats["jobs"] == stats["tasks"] == 40
        assert stats["payload_jobs"] == sum(
            1 for t in trace.tasks if t.payload is not None
        )
        assert stats["users"] >= 1


# ---------------------------------------------------------------------------
# Malformed traces
# ---------------------------------------------------------------------------


class TestValidation:
    def _load_err(self, tmp_path, lines: list[str]) -> str:
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError) as err:
            load_trace(path)
        return str(err.value)

    def test_unknown_field_rejected_with_line(self, tmp_path):
        message = self._load_err(
            tmp_path,
            ['{"type": "job", "job_name": "j", "submit_time": 0, "oops": 1}'],
        )
        assert "oops" in message and "bad.jsonl:1" in message

    def test_missing_task_rejected(self, tmp_path):
        message = self._load_err(
            tmp_path, ['{"type": "job", "job_name": "j", "submit_time": 0}']
        )
        assert "task" in message

    def test_plan_gpu_must_be_whole_gpus(self, tmp_path):
        message = self._load_err(
            tmp_path,
            [
                '{"type": "job", "job_name": "j", "submit_time": 0}',
                '{"type": "task", "job_name": "j", "inst_num": 1, "plan_gpu": 150}',
            ],
        )
        assert "plan_gpu" in message

    def test_duplicate_job_name_rejected(self, tmp_path):
        message = self._load_err(
            tmp_path,
            [
                '{"type": "job", "job_name": "j", "submit_time": 0}',
                '{"type": "job", "job_name": "j", "submit_time": 1}',
            ],
        )
        assert "duplicate" in message

    @pytest.mark.parametrize("layout", ["jsonl", "csv"])
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e400"])
    def test_non_finite_number_names_file_line_and_field(
        self, tmp_path, layout, literal
    ):
        # Such a submit_time used to validate and replay to a NaN / inf
        # makespan, in a payload that is not valid JSON.
        trace = small_trace(num_jobs=3)
        if layout == "jsonl":
            path = write_trace(trace, tmp_path / "day.jsonl")
            lines = path.read_text().splitlines()
            record = json.loads(lines[1])
            record["submit_time"] = "@"
            lines[1] = json.dumps(record).replace('"@"', literal)
            path.write_text("\n".join(lines) + "\n")
            where = f"{path}:2"
        else:
            path = write_trace_csv(trace, tmp_path / "day")
            with (path / "job.csv").open(newline="") as handle:
                rows = list(csv.reader(handle))
            rows[2][rows[0].index("submit_time")] = literal
            with (path / "job.csv").open("w", newline="") as handle:
                csv.writer(handle).writerows(rows)
            where = f"{path / 'job.csv'}:3"
        with pytest.raises(TraceError) as err:
            load_trace(path)
        message = str(err.value)
        assert message.startswith(f"{where}: job field 'submit_time'")
        assert "must be finite" in message and "\n" not in message

    def test_unknown_workload_points_at_job(self):
        trace = Trace(
            jobs=[TraceJob(job_name="j", user="u", submit_time=0.0, workload="warp9")],
            tasks=[TraceTask(job_name="j", inst_num=1)],
        )
        with pytest.raises(TraceError, match="j"):
            trace_to_specs(trace)


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------


class TestGenerator:
    def test_same_seed_same_trace(self):
        assert small_trace(seed=11) == small_trace(seed=11)

    def test_different_seed_different_trace(self):
        assert small_trace(seed=11) != small_trace(seed=12)

    def test_exact_job_count_and_sorted_arrivals(self):
        trace = small_trace(num_jobs=257)
        assert len(trace.jobs) == 257
        submits = [job.submit_time for job in trace.jobs]
        assert submits == sorted(submits)
        assert all(0 <= t <= 86_400 for t in submits)

    def test_heavy_tail_and_clipping(self):
        trace = generate_trace(SyntheticTraceConfig(num_jobs=2000, seed=5))
        iterations = sorted(t.iterations for t in trace.tasks)
        assert iterations[0] >= 20 and iterations[-1] <= 50_000
        # Heavy tail: the p99 job is much longer than the median.
        assert iterations[-20] > 10 * iterations[1000]

    def test_payload_jobs_stay_small(self):
        trace = small_trace(num_jobs=200, payload_fraction=1.0)
        for task in trace.tasks:
            assert task.payload is not None
            assert task.inst_num <= 2 and task.plan_gpu <= 200
            assert task.iterations <= 60

    def test_generated_trace_is_schedulable(self):
        specs = trace_to_specs(small_trace(num_jobs=100, seed=9))
        report = MultiTenantScheduler(num_nodes=8, gpus_per_node=8).run(specs)
        assert report.summary()["jobs_done"] >= 95

    def test_mix_validation(self):
        with pytest.raises(ValueError, match="gpus_per_node"):
            SyntheticTraceConfig(gpus_per_node={})
        with pytest.raises(ValueError, match="payload_fraction"):
            SyntheticTraceConfig(payload_fraction=1.5)


class TestThousandJobDay:
    """A 1k-job synthetic day (seed 2021) on a 16 x 8 tencent cluster:
    every built-in policy schedules the queue and bills real dollars,
    and a replay is a pure function of trace + seed."""

    @pytest.fixture(scope="class")
    def specs(self):
        return trace_to_specs(
            generate_trace(SyntheticTraceConfig(num_jobs=1_000, seed=2021))
        )

    @staticmethod
    def _replay(specs, policy):
        scheduler = MultiTenantScheduler(
            num_nodes=16, gpus_per_node=8, policy=policy, seed=2021, name="day-1k"
        )
        return scheduler.run(specs)

    @pytest.mark.parametrize(
        "policy", ["bin-pack", "spread", "network-aware", "fault-aware"]
    )
    def test_day_completes_and_bills(self, specs, policy):
        summary = self._replay(specs, policy).summary()
        assert summary["jobs_done"] >= 950, summary
        assert summary["total_cost_usd"] > 0, summary

    def test_replay_is_deterministic(self, specs):
        first, second = self._replay(specs, "bin-pack"), self._replay(specs, "bin-pack")
        assert first.summary() == second.summary()
        assert distribution_rows([first]) == distribution_rows([second])


# ---------------------------------------------------------------------------
# Fast path vs trainer path
# ---------------------------------------------------------------------------


class TestPayloadParity:
    def test_payload_never_perturbs_scheduling(self):
        """Stripping every payload changes no scheduling decision."""
        specs = trace_to_specs(small_trace(num_jobs=30, payload_fraction=0.3))
        assert any(s.payload is not None for s in specs)
        stripped = [dataclasses.replace(s, payload=None) for s in specs]

        def run(job_specs):
            return MultiTenantScheduler(num_nodes=4, gpus_per_node=8).run(job_specs)

        with_payload = run(specs)
        without = run(stripped)
        # Identical except the trailing final_loss column.
        assert [o.row()[:-1] for o in with_payload.jobs] == [
            o.row()[:-1] for o in without.jobs
        ]
        assert with_payload.summary() == without.summary()

    def test_payload_jobs_actually_train(self):
        payload = TrainPayload(seed=13)
        specs = trace_to_specs(small_trace(num_jobs=20, payload_fraction=0.4))
        report = MultiTenantScheduler(num_nodes=4, gpus_per_node=8).run(specs)
        losses = [
            o.final_loss for o in report.jobs if o.final_loss is not None
        ]
        assert losses, "no payload job produced a final loss"
        assert all(loss == loss and loss < 100 for loss in losses)
        assert payload.model == "mlp-tiny"


# ---------------------------------------------------------------------------
# Config / facade / exec threading
# ---------------------------------------------------------------------------


class TestConfigThreading:
    def test_trace_config_loads(self):
        config = SchedConfig.from_json(TRACE_CONFIG.read_text())
        assert config.trace == "examples/traces/sample_day.jsonl"
        assert config.to_dict()["trace"] == config.trace
        assert "jobs" not in config.to_dict()

    def test_jobs_and_trace_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            SchedConfig.from_dict(
                {
                    "name": "x",
                    "cluster": {"instance": "tencent", "num_nodes": 2},
                    "trace": "day.jsonl",
                    "jobs": [{"name": "j", "profile": "resnet50"}],
                }
            )

    def test_job_specs_for_honours_trace(self, tmp_path):
        trace = small_trace(num_jobs=12)
        path = write_trace(trace, tmp_path / "day.jsonl")
        config = SchedConfig.from_dict(
            {
                "name": "t",
                "cluster": {"instance": "tencent", "num_nodes": 2},
                "trace": str(path),
            }
        )
        specs = job_specs_for(config)
        assert [s.name for s in specs] == [j.job_name for j in trace.jobs]

    def test_facade_serial_equals_pool(self, tmp_path):
        """--jobs 1 and --jobs 2 produce bit-identical distributions."""
        path = write_trace(small_trace(num_jobs=25), tmp_path / "day.jsonl")
        base = {
            "name": "pool-parity",
            "seed": 0,
            "cluster": {"instance": "tencent", "num_nodes": 4, "gpus_per_node": 8},
            "policies": ["bin-pack", "spread"],
            "trace": str(path),
        }
        serial = run_sched(SchedConfig.from_dict(base))
        pooled = run_sched(SchedConfig.from_dict({**base, "exec": {"jobs": 2}}))
        assert payload_for_trace_reports(
            list(serial.values())
        ) == payload_for_trace_reports(list(pooled.values()))


# ---------------------------------------------------------------------------
# Distribution payload
# ---------------------------------------------------------------------------


class TestDistributionPayload:
    def test_payload_passes_schema_gate(self):
        specs = trace_to_specs(small_trace(num_jobs=30))
        report = MultiTenantScheduler(num_nodes=4, gpus_per_node=8).run(specs)
        payload = payload_for_trace_reports([report], trace="day.jsonl")
        validate_bench_payload(payload)
        assert payload["columns"] == DISTRIBUTION_COLUMNS
        assert payload["meta"]["trace"] == "day.jsonl"
        assert payload["meta"]["num_jobs"] == 30

    def test_percentiles_are_ordered(self):
        specs = trace_to_specs(small_trace(num_jobs=50))
        report = MultiTenantScheduler(num_nodes=4, gpus_per_node=8).run(specs)
        for row in distribution_rows([report]):
            _, metric, count, mean, p50, p90, p99, top = row
            if count == 0:
                continue
            assert p50 <= p90 <= p99 <= top, (metric, row)
            assert mean <= top


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_gen_validate_replay(self, tmp_path, capsys):
        out = tmp_path / "day.jsonl"
        assert main(
            ["trace", "gen", "--out", str(out), "--num-jobs", "30", "--seed", "4"]
        ) == 0
        assert "wrote 30 jobs" in capsys.readouterr().out
        assert main(["trace", "validate", str(out)]) == 0
        assert "ok: 30 schedulable jobs" in capsys.readouterr().out
        assert main(["sched", "--trace", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["columns"] == ["policy", *DISTRIBUTION_COLUMNS[1:]]
        assert payload["meta"]["num_jobs"] == 30

    def test_validate_json_flag(self, tmp_path, capsys):
        out = tmp_path / "day.jsonl"
        main(["trace", "gen", "--out", str(out), "--num-jobs", "10"])
        capsys.readouterr()
        assert main(["trace", "validate", str(out), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["jobs"] == 10

    def test_csv_format_flag(self, tmp_path, capsys):
        out = tmp_path / "day_csv"
        assert main(
            ["trace", "gen", "--out", str(out), "--num-jobs", "10",
             "--format", "csv"]
        ) == 0
        capsys.readouterr()
        assert main(["trace", "validate", str(out)]) == 0

    def test_config_with_trace_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(REPO)  # config paths are repo-root relative
        assert main(["sched", "--config", str(TRACE_CONFIG), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["trace"] == "examples/traces/sample_day.jsonl"
        assert payload["meta"]["policies"] == ["bin-pack", "network-aware"]

    def test_malformed_trace_is_one_line_exit_2(self, tmp_path):
        """Trace errors reach the shell as one line, no traceback."""
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "job", "job_name": "j", "oops": 1}\n')
        truncated = tmp_path / "trunc.jsonl"
        truncated.write_text('{"type": "job", "job_name"\n')
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
        )
        for argv in (
            ["sched", "--trace", str(bad)],
            ["sched", "--trace", str(truncated)],
            ["sched", "--trace", str(tmp_path / "missing.jsonl")],
            ["trace", "validate", str(bad)],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                capture_output=True, text=True, timeout=120, env=env,
            )
            assert proc.returncode == 2, argv
            assert "Traceback" not in proc.stderr, argv
            lines = [line for line in proc.stderr.splitlines() if line.strip()]
            assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr

    def test_sched_requires_config_or_trace(self, capsys):
        assert main(["sched"]) == 2
        assert "config" in capsys.readouterr().err
