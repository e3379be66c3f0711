"""ExecConfig: declaration, validation, overrides, the ``--jobs`` flag.

The ``exec`` section lives on sched configs only: a training step always
runs inline, so a run config carrying one, or ``repro run
--backend/--jobs``, fails with one line naming what was removed.
"""

import pathlib

import pytest

from repro.api.config import (
    ConfigError,
    ExecConfig,
    RunConfig,
    SchedConfig,
    apply_overrides,
)

REPO = pathlib.Path(__file__).resolve().parent.parent.parent


class TestExecSection:
    def test_defaults_serial(self):
        config = SchedConfig()
        assert config.exec == ExecConfig(jobs=1)

    def test_round_trips_through_dict_and_json(self):
        config = SchedConfig.from_dict({"name": "x", "exec": {"jobs": 4}})
        assert config.exec.jobs == 4
        assert SchedConfig.from_dict(config.to_dict()) == config
        assert SchedConfig.from_json(config.to_json()) == config

    def test_to_dict_always_carries_exec(self):
        assert SchedConfig().to_dict()["exec"] == {"jobs": 1}

    def test_negative_jobs_rejected(self):
        with pytest.raises(ConfigError, match="jobs must be >= 0"):
            SchedConfig.from_dict({"exec": {"jobs": -2}})

    def test_unknown_backend_rejected(self):
        # Width is the only exec setting: the retired key is unknown.
        with pytest.raises(ConfigError, match="'backend' in 'exec'; accepted keys: jobs"):
            SchedConfig.from_dict({"exec": {"backend": "process", "jobs": 2}})

    def test_bad_start_method_rejected(self):
        with pytest.raises(ConfigError, match="'start_method'.*accepted keys: jobs"):
            SchedConfig.from_dict({"exec": {"start_method": "fork"}})

    def test_unknown_key_rejected_with_accepted_list(self):
        with pytest.raises(ConfigError, match="accepted keys"):
            SchedConfig.from_dict({"exec": {"threads": 2}})

    def test_overrides_reach_exec(self):
        config = apply_overrides(SchedConfig(), ["exec.jobs=0"])
        assert config.exec.jobs == 0


class TestRunConfigHasNoExec:
    def test_exec_section_is_one_line_naming_the_removal(self):
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict({"name": "x", "exec": {"jobs": 1}})
        message = str(err.value)
        assert "no 'exec' section" in message and "\n" not in message
        assert "exec" not in RunConfig().to_dict()

    def test_run_jobs_flag_is_one_line_naming_the_removal(self, tmp_path, capsys):
        from repro.api.cli import main

        path = tmp_path / "cfg.json"
        path.write_text(RunConfig().to_json())
        assert main(["run", "--config", str(path), "--jobs", "2"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "no --backend/--jobs" in err

    @pytest.mark.parametrize(
        "flags, fragment",
        [
            (["--backend", "process"], "no --backend/--jobs"),
            (["--set", "exec.jobs=2"], "'exec' is not a section"),
        ],
        ids=["backend", "set-exec"],
    )
    def test_other_run_exec_routes_are_one_line_errors(self, tmp_path, capsys, flags, fragment):
        from repro.api.cli import main

        path = tmp_path / "cfg.json"
        path.write_text(RunConfig().to_json())
        assert main(["run", "--config", str(path), *flags]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert fragment in err


class TestTrainersTakeNoBackend:
    """A step always runs inline: a caller still passing a backend to a
    trainer fails at construction instead of being silently ignored."""

    @pytest.mark.parametrize("trainer", ["distributed", "elastic"])
    def test_exec_backend_keyword_is_rejected(self, trainer):
        from repro.api.registry import build_cluster, build_scheme, build_workload
        from repro.elastic.elastic_trainer import ElasticTrainer
        from repro.train.trainer import DistributedTrainer
        from repro.utils.seeding import new_rng

        model = build_workload("mlp-tiny", num_samples=32, rng=new_rng(0)).model
        with pytest.raises(TypeError, match="exec_backend"):
            if trainer == "distributed":
                network = build_cluster("tencent", 2, gpus_per_node=2)
                DistributedTrainer(
                    model, build_scheme("dense", network), exec_backend=object()
                )
            else:
                ElasticTrainer(model, num_nodes=2, exec_backend=object())


class TestCLIFlags:
    CONFIG = {
        "name": "cli",
        "cluster": {"num_nodes": 2, "gpus_per_node": 2},
        "policies": ["bin-pack", "spread"],
        "jobs": [{"name": "a", "iterations": 40}],
    }

    @pytest.mark.parametrize("name", ["cli", "multi_tenant", "trace_replay"])
    def test_sched_jobs_flag(self, tmp_path, capsys, monkeypatch, name):
        # The payload is byte-identical at every width.
        from repro.api.cli import main

        monkeypatch.chdir(REPO)  # shipped config paths are repo-root relative
        path = REPO / "examples" / "configs" / f"{name}.json"
        if name == "cli":
            path = tmp_path / "cfg.json"
            path.write_text(SchedConfig.from_dict(self.CONFIG).to_json())
        payloads = []
        for jobs in ("1", "2", "4"):
            assert main(["sched", "--config", str(path), "--jobs", jobs, "--json"]) == 0
            payloads.append(capsys.readouterr().out)
        assert payloads[0] == payloads[1] == payloads[2]

    def test_pooled_task_error_is_the_serial_error_line(self, tmp_path, capsys):
        # A task's error crosses the pool as itself, so `sched --jobs 2`
        # reports a missing trace exactly as the inline run does.
        from repro.api.cli import main

        missing = str(tmp_path / "missing.jsonl")
        assert main(["sched", "--trace", missing]) == 2
        serial = capsys.readouterr()
        assert serial.err.count("\n") == 1 and serial.err.startswith("error: ")
        assert main(["sched", "--trace", missing, "--jobs", "2"]) == 2
        pooled = capsys.readouterr()
        assert (pooled.out, pooled.err) == (serial.out, serial.err)

    @pytest.mark.parametrize("command", ["sched", "experiments"])
    def test_negative_jobs_is_one_error_line(self, tmp_path, capsys, command):
        from repro.api.cli import main

        path = tmp_path / "cfg.json"
        path.write_text(SchedConfig().to_json())
        flags = ["--config", str(path)] if command == "sched" else ["--only", "Table 1"]
        assert main([command, *flags, "--jobs", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "jobs must be >= 0" in err

    @pytest.mark.parametrize(
        "argv", [["sched"], ["experiments"], ["list"]], ids=["sched", "experiments", "list"]
    )
    def test_bad_backend_is_exit_2(self, capsys, argv):
        # No flag, config key or list group names a backend any more;
        # argparse's own rejection is the error.
        from repro.api.cli import main

        flag = ["backends"] if argv == ["list"] else ["--backend", "process"]
        with pytest.raises(SystemExit) as exit_:
            main([*argv, *flag])
        assert exit_.value.code == 2
        assert "backend" in capsys.readouterr().err
