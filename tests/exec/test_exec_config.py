"""ExecConfig: declaration, validation, overrides, CLI flags."""

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
        config = RunConfig()
        assert config.exec == ExecConfig(backend="serial", jobs=1, start_method=None)

    def test_round_trips_through_dict_and_json(self):
        config = RunConfig.from_dict(
            {"name": "x", "exec": {"backend": "process", "jobs": 4,
                                   "start_method": "fork"}}
        )
        assert config.exec.jobs == 4
        assert RunConfig.from_dict(config.to_dict()) == config
        assert RunConfig.from_json(config.to_json()) == config

    def test_to_dict_always_carries_exec(self):
        assert RunConfig().to_dict()["exec"] == {
            "backend": "serial",
            "jobs": 1,
            "start_method": None,
        }

    def test_alias_accepted(self):
        RunConfig.from_dict({"exec": {"backend": "mp"}}).validate()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="unknown exec backend"):
            RunConfig.from_dict({"exec": {"backend": "gpu"}})

    def test_negative_jobs_rejected(self):
        with pytest.raises(ConfigError, match="jobs must be >= 0"):
            RunConfig.from_dict({"exec": {"jobs": -2}})

    def test_bad_start_method_rejected(self):
        with pytest.raises(ConfigError, match="start_method"):
            RunConfig.from_dict({"exec": {"start_method": "thread"}})

    def test_unknown_key_rejected_with_accepted_list(self):
        with pytest.raises(ConfigError, match="accepted keys"):
            RunConfig.from_dict({"exec": {"threads": 2}})

    def test_overrides_reach_exec(self):
        config = apply_overrides(
            RunConfig(), ["exec.backend=process", "exec.jobs=0"]
        )
        assert config.exec.backend == "process"
        assert config.exec.jobs == 0

    def test_sched_config_has_exec_too(self):
        config = SchedConfig.from_dict({"exec": {"backend": "process", "jobs": 2}})
        assert config.exec.jobs == 2
        assert SchedConfig.from_dict(config.to_dict()) == config
        updated = apply_overrides(config, ["exec.jobs=3"])
        assert updated.exec.jobs == 3

    def test_sched_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="unknown exec backend"):
            SchedConfig.from_dict({"exec": {"backend": "gpu"}})


class TestCLIFlags:
    def test_run_backend_flag(self, tmp_path, capsys):
        from repro.api.cli import main

        path = tmp_path / "cfg.json"
        path.write_text(
            RunConfig.from_dict(
                {"name": "cli", "train": {"model": "mlp-tiny", "epochs": 1,
                                          "num_samples": 64}}
            ).to_json()
        )
        assert main(["run", "--config", str(path), "--backend", "process",
                     "--jobs", "2"]) == 0
        assert "final_loss" in capsys.readouterr().out

    def test_jobs_alone_implies_process(self, tmp_path, capsys):
        from repro.api.cli import _exec_overrides, main

        class Args:
            backend = None
            jobs = 2

        assert _exec_overrides(Args()) == ["exec.backend=process", "exec.jobs=2"]
        path = tmp_path / "cfg.json"
        path.write_text(
            RunConfig.from_dict(
                {"name": "cli2", "train": {"model": "mlp-tiny", "epochs": 1,
                                           "num_samples": 64}}
            ).to_json()
        )
        assert main(["run", "--config", str(path), "--jobs", "2"]) == 0
        assert "final_loss" in capsys.readouterr().out

    def test_bad_backend_is_exit_2(self, tmp_path, capsys):
        from repro.api.cli import main

        path = tmp_path / "cfg.json"
        path.write_text(RunConfig().to_json())
        assert main(["run", "--config", str(path), "--backend", "gpu"]) == 2
        assert "unknown exec backend" in capsys.readouterr().err

    def test_list_backends(self, capsys):
        from repro.api.cli import main

        assert main(["list", "backends"]) == 0
        out = capsys.readouterr().out
        assert "serial" in out and "process" in out
