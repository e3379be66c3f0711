"""ParallelSweeper: ordered fan-out of configs, policies, experiments."""

import multiprocessing
import os

import pytest

import repro.exec.sweeper as sweeper_module
from repro.api.config import ConfigError, RunConfig
from repro.exec.config import cpu_count, resolve_jobs
from repro.exec.sweeper import ParallelSweeper


class TaskFailed(Exception):
    """An exception type only this module raises."""


def _double(x):
    return 2 * x


def _boom(x):
    raise TaskFailed(f"boom {x}")


def _exit_abruptly(x):
    os._exit(3)


def _slow_then_value(item):
    import time

    delay, value = item
    time.sleep(delay)
    return value


class TestJobs:
    def test_resolve_jobs_zero_means_all_cores(self):
        assert resolve_jobs(0) == cpu_count()
        assert resolve_jobs(3) == 3

    def test_negative_jobs_rejected(self):
        with pytest.raises(ConfigError, match="jobs must be >= 0"):
            resolve_jobs(-1)
        with pytest.raises(ConfigError, match="jobs must be >= 0"):
            ParallelSweeper(jobs=-1)

    def test_default_is_inline(self):
        assert ParallelSweeper().jobs == 1
        assert ParallelSweeper(jobs=0).jobs == cpu_count()

    def test_cpu_count_positive(self):
        assert 1 <= cpu_count() <= (os.cpu_count() or 1)


class TestMap:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_map_returns_submission_order(self, jobs):
        assert ParallelSweeper(jobs=jobs).map(_double, range(7)) == [
            2 * x for x in range(7)
        ]

    def test_map_order_independent_of_completion_order(self):
        # The slowest task is submitted first; results still come back
        # in submission order.
        items = [(0.05, "slow"), (0.0, "a"), (0.0, "b"), (0.0, "c")]
        assert ParallelSweeper(jobs=2).map(_slow_then_value, items) == [
            "slow", "a", "b", "c",
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_task_exception_reraised_as_its_own_type(self, jobs):
        with pytest.raises(TaskFailed, match="boom 1"):
            ParallelSweeper(jobs=jobs).map(_boom, [1, 2, 3])

    def test_worker_death_fails_the_sweep(self):
        # A worker killed mid-task fails the call instead of hanging it.
        from concurrent.futures.process import BrokenProcessPool

        with pytest.raises(BrokenProcessPool):
            ParallelSweeper(jobs=2).map(_exit_abruptly, [1, 2])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_map_empty(self, jobs):
        assert ParallelSweeper(jobs=jobs).map(_double, []) == []

    def test_width_capped_at_task_count(self, monkeypatch):
        widths = []
        pool_cls = sweeper_module.ProcessPoolExecutor

        def recording_pool(*, max_workers, **kwargs):
            widths.append(max_workers)
            return pool_cls(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(sweeper_module, "ProcessPoolExecutor", recording_pool)
        assert ParallelSweeper(jobs=4).map(_double, [1, 2]) == [2, 4]
        assert ParallelSweeper(jobs=2).map(_double, [1, 2, 3]) == [2, 4, 6]
        assert widths == [2, 2]

    def test_spawn_start_method_works(self, monkeypatch):
        # The import-clean path used on platforms without fork.
        monkeypatch.setattr(
            sweeper_module, "_pool_context", lambda: multiprocessing.get_context("spawn")
        )
        assert ParallelSweeper(jobs=2).map(_double, [3, 6]) == [6, 12]


class TestRunConfigs:
    def test_accepts_configs_and_dicts(self):
        config = RunConfig.from_dict(
            {"name": "a", "train": {"model": "mlp-tiny", "epochs": 1,
                                    "num_samples": 64}}
        )
        reports = ParallelSweeper().run_configs([config, config.to_dict()])
        assert [r.name for r in reports] == ["a", "a"]
        assert reports[0].summary == reports[1].summary


class TestRunSchedPolicies:
    def test_children_forced_serial(self):
        # A pooled config must not nest a second pool inside the pool
        # worker; the child runs inline and still succeeds.
        from repro.api.config import SchedConfig
        from repro.api.facade import run_sched_serial

        config = SchedConfig.from_dict(
            {
                "name": "nested",
                "policies": ["bin-pack", "spread"],
                "exec": {"jobs": 4},
            }
        )
        pooled = ParallelSweeper(jobs=2).run_sched_policies(config)
        assert pooled == run_sched_serial(config)


class TestRunExperiments:
    def test_captured_output_in_entry_order(self):
        entries = [
            ("Table 1", "repro.experiments.table1_instances", False),
            ("Fig. 7", "repro.experiments.fig7_aggregation", False),
        ]
        outputs = ParallelSweeper(jobs=2).run_experiments(entries)
        assert [name for name, _ in outputs] == ["Table 1", "Fig. 7"]
        for _, text in outputs:
            assert text.strip()

    def test_serial_and_process_transcripts_match(self):
        entries = [
            ("Table 1", "repro.experiments.table1_instances", False),
            ("Table 4", "repro.experiments.table4_resolutions", False),
        ]
        serial = ParallelSweeper().run_experiments(entries)
        pooled = ParallelSweeper(jobs=2).run_experiments(entries)
        assert serial == pooled


class TestRunnerCLI:
    def test_parallel_runner_exit_code_and_output(self, capsys):
        from repro.experiments.runner import main

        assert main(["--only", "Table 1", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "jobs=2" in out

    def test_jobs_1_streams_inline(self, capsys):
        # Width 1 runs the harness in this process with live output (no
        # "jobs=" summary line).
        from repro.experiments.runner import main

        assert main(["--only", "Table 1", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "jobs=" not in out

    def test_pooled_transcript_is_the_serial_one(self, capsys):
        # Apart from the timing lines, --jobs 2 prints what --jobs 1 does.
        from repro.experiments.runner import main

        transcripts = []
        for jobs in ("1", "2"):
            assert main(["--only", "Table 1", "--jobs", jobs]) == 0
            out = capsys.readouterr().out
            transcripts.append([line for line in out.splitlines() if "done in" not in line])
        assert transcripts[0] == transcripts[1]

    def test_negative_jobs_is_one_error_line(self, capsys):
        from repro.experiments.runner import main

        assert main(["--only", "Table 1", "--jobs", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "jobs must be >= 0" in err

    def test_no_match_is_clean_error(self, capsys):
        from repro.experiments.runner import main

        assert main(["--only", "Fig. 99"]) == 2
        assert "no experiment matches" in capsys.readouterr().err
