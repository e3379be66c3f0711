"""ParallelSweeper: ordered fan-out of configs, policies, experiments."""

import pytest

from repro.api.config import RunConfig
from repro.exec.backend import SerialBackend
from repro.exec.sweeper import ParallelSweeper


def _double(x):
    return 2 * x


class TestConstruction:
    def test_default_is_serial(self):
        sweeper = ParallelSweeper()
        assert isinstance(sweeper.backend, SerialBackend)

    def test_accepts_backend_instance_without_owning_it(self):
        backend = SerialBackend()
        sweeper = ParallelSweeper(backend)
        assert sweeper.backend is backend
        assert sweeper._owned is False

    def test_builds_by_name_and_owns(self):
        sweeper = ParallelSweeper("process", jobs=1)
        assert sweeper._owned is True
        assert sweeper.map(_double, [1, 2]) == [2, 4]
        # The owned pool was closed after map.
        assert sweeper.backend._workers == []

    def test_unknown_backend_name(self):
        with pytest.raises(KeyError):
            ParallelSweeper("quantum")


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
        # A process-backend config must not nest a second pool inside
        # the pool worker; the child runs serial and still succeeds.
        from repro.api.config import SchedConfig
        from repro.api.facade import run_sched_serial

        config = SchedConfig.from_dict(
            {
                "name": "nested",
                "policies": ["bin-pack", "spread"],
                "exec": {"backend": "process", "jobs": 4},
            }
        )
        pooled = ParallelSweeper("process", jobs=1).run_sched_policies(config)
        assert pooled == run_sched_serial(config)


class TestRunExperiments:
    def test_captured_output_in_entry_order(self):
        entries = [
            ("Table 1", "repro.experiments.table1_instances", False),
            ("Fig. 7", "repro.experiments.fig7_aggregation", False),
        ]
        outputs = ParallelSweeper("process", jobs=2).run_experiments(entries)
        assert [name for name, _ in outputs] == ["Table 1", "Fig. 7"]
        for _, text in outputs:
            assert text.strip()

    def test_serial_and_process_transcripts_match(self):
        entries = [("Table 1", "repro.experiments.table1_instances", False)]
        serial = ParallelSweeper().run_experiments(entries)
        pooled = ParallelSweeper("process", jobs=1).run_experiments(entries)
        assert serial == pooled


class TestRunnerCLI:
    def test_parallel_runner_exit_code_and_output(self, capsys):
        from repro.experiments.runner import main

        assert main(["--only", "Table 1", "--backend", "process", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "jobs=2" in out

    def test_unknown_backend_is_clean_error(self, capsys):
        from repro.experiments.runner import main

        assert main(["--only", "Table 1", "--backend", "warp"]) == 2
        assert "unknown exec backend" in capsys.readouterr().err

    def test_explicit_serial_wins_over_jobs(self, capsys):
        # Same rule as `repro run`: a named backend is never overridden
        # by --jobs; serial streams live (no "jobs=" summary line).
        from repro.experiments.runner import main

        assert main(["--only", "Table 1", "--backend", "serial", "--jobs", "4"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "jobs=" not in out

    def test_no_match_is_clean_error(self, capsys):
        from repro.experiments.runner import main

        assert main(["--only", "Fig. 99"]) == 2
        assert "no experiment matches" in capsys.readouterr().err
