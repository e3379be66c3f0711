"""ExecConfig: declaration, validation, overrides, CLI flags.

The ``exec`` section lives on sched configs only: a training step always
runs inline, so a run config carrying one, or ``repro run
--backend/--jobs``, fails with one line naming what was removed.
"""

import pytest

from repro.api.config import (
    ConfigError,
    ExecConfig,
    RunConfig,
    SchedConfig,
    apply_overrides,
)


class TestExecSection:
    def test_defaults_serial(self):
        config = SchedConfig()
        assert config.exec == ExecConfig(backend="serial", jobs=1, start_method=None)

    def test_round_trips_through_dict_and_json(self):
        config = SchedConfig.from_dict(
            {"name": "x", "exec": {"backend": "process", "jobs": 4,
                                   "start_method": "fork"}}
        )
        assert config.exec.jobs == 4
        assert SchedConfig.from_dict(config.to_dict()) == config
        assert SchedConfig.from_json(config.to_json()) == config

    def test_to_dict_always_carries_exec(self):
        assert SchedConfig().to_dict()["exec"] == {
            "backend": "serial",
            "jobs": 1,
            "start_method": None,
        }

    def test_alias_accepted(self):
        SchedConfig.from_dict({"exec": {"backend": "mp"}}).validate()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="unknown exec backend"):
            SchedConfig.from_dict({"exec": {"backend": "gpu"}})

    def test_negative_jobs_rejected(self):
        with pytest.raises(ConfigError, match="jobs must be >= 0"):
            SchedConfig.from_dict({"exec": {"jobs": -2}})

    def test_bad_start_method_rejected(self):
        with pytest.raises(ConfigError, match="start_method"):
            SchedConfig.from_dict({"exec": {"start_method": "thread"}})

    def test_unknown_key_rejected_with_accepted_list(self):
        with pytest.raises(ConfigError, match="accepted keys"):
            SchedConfig.from_dict({"exec": {"threads": 2}})

    def test_overrides_reach_exec(self):
        config = apply_overrides(
            SchedConfig(), ["exec.backend=process", "exec.jobs=0"]
        )
        assert config.exec.backend == "process"
        assert config.exec.jobs == 0


class TestRunConfigHasNoExec:
    def test_exec_section_is_one_line_naming_the_removal(self):
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict({"name": "x", "exec": {"backend": "serial"}})
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
        from repro.exec.backend import SerialBackend
        from repro.train.trainer import DistributedTrainer
        from repro.utils.seeding import new_rng

        model = build_workload("mlp-tiny", num_samples=32, rng=new_rng(0)).model
        with pytest.raises(TypeError, match="exec_backend"):
            if trainer == "distributed":
                network = build_cluster("tencent", 2, gpus_per_node=2)
                DistributedTrainer(
                    model, build_scheme("dense", network), exec_backend=SerialBackend()
                )
            else:
                ElasticTrainer(model, num_nodes=2, exec_backend=SerialBackend())


class TestCLIFlags:
    CONFIG = {
        "name": "cli",
        "cluster": {"num_nodes": 2, "gpus_per_node": 2},
        "policies": ["bin-pack", "spread"],
        "jobs": [{"name": "a", "iterations": 40}],
    }

    def test_sched_backend_flag(self, tmp_path, capsys):
        from repro.api.cli import main

        path = tmp_path / "cfg.json"
        path.write_text(SchedConfig.from_dict(self.CONFIG).to_json())
        assert main(["sched", "--config", str(path), "--json"]) == 0
        serial = capsys.readouterr().out
        assert main(["sched", "--config", str(path), "--backend", "process",
                     "--jobs", "2", "--json"]) == 0
        assert capsys.readouterr().out == serial

    def test_jobs_alone_implies_process(self, tmp_path, capsys):
        from repro.api.cli import _exec_overrides, main

        class Args:
            backend = None
            jobs = 2

        assert _exec_overrides(Args()) == ["exec.backend=process", "exec.jobs=2"]
        path = tmp_path / "cfg.json"
        path.write_text(SchedConfig.from_dict(self.CONFIG).to_json())
        assert main(["sched", "--config", str(path), "--jobs", "2"]) == 0
        assert "bin-pack" in capsys.readouterr().out

    def test_bad_backend_is_exit_2(self, tmp_path, capsys):
        from repro.api.cli import main

        path = tmp_path / "cfg.json"
        path.write_text(SchedConfig().to_json())
        assert main(["sched", "--config", str(path), "--backend", "gpu"]) == 2
        assert "unknown exec backend" in capsys.readouterr().err

    def test_list_backends(self, capsys):
        from repro.api.cli import main

        assert main(["list", "backends"]) == 0
        out = capsys.readouterr().out
        assert "serial" in out and "process" in out
