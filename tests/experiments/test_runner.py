"""The run-everything entry point."""

import importlib
import inspect

import pytest

from repro.experiments.runner import EXPERIMENTS, FAST_AWARE, main
from tests.conftest import digest16


class TestRunner:
    def test_all_experiments_registered(self):
        names = [name for name, _ in EXPERIMENTS]
        assert len(names) == 16
        for expected in ("Table 1", "Fig. 1", "Fig. 6", "Fig. 7", "Fig. 8",
                         "Fig. 9", "Fig. 10", "Table 2", "Table 3",
                         "Table 4", "Table 5", "Elastic churn",
                         "Multi-tenant sched", "Fault drills",
                         "Brain autotune"):
            assert any(expected in n for n in names), expected

    def test_only_filter_runs_one(self, capsys):
        assert main(["--only", "Table 1"]) == 0
        out = capsys.readouterr().out
        assert "p3.16xlarge" in out
        assert "HiTopKComm" not in out  # Fig. 7 was filtered out

    def test_only_filter_case_insensitive(self, capsys):
        assert main(["--only", "table 4"]) == 0
        assert "128-GPU" in capsys.readouterr().out


class TestFastFlag:
    def test_fast_aware_mains_accept_fast(self):
        by_name = dict(EXPERIMENTS)
        for name in FAST_AWARE:
            assert name in by_name, name
            params = inspect.signature(by_name[name]).parameters
            assert "fast" in params, f"{name} main() lacks a fast kwarg"
            assert params["fast"].default is False

    def test_fast_fig6_skips_cpu_measurement(self, capsys):
        assert main(["--only", "Fig. 6", "--fast"]) == 0
        out = capsys.readouterr().out
        # CPU column rendered as '-' when measurement is skipped.
        assert "V100 projected" in out
        assert "MSTopK" in out

    def test_fast_fig10_trims_epochs(self, capsys):
        from repro.experiments.fig10_convergence import FAST_EPOCHS

        assert main(["--only", "Fig. 10", "--fast"]) == 0
        out = capsys.readouterr().out
        # The per-epoch table stops at the trimmed epoch count.
        assert f"\n{FAST_EPOCHS - 1} " in out
        assert f"\n{FAST_EPOCHS} " not in out

    def test_fast_table2_trains_the_fig10_trim(self, capsys, monkeypatch):
        from repro.experiments import table2_validation
        from repro.experiments.fig10_convergence import FAST_EPOCHS, FAST_SAMPLES

        calls, real_run = [], table2_validation.run
        monkeypatch.setattr(
            table2_validation, "run", lambda **kwargs: calls.append(kwargs) or real_run(**kwargs)
        )
        assert main(["--only", "Table 2", "--fast"]) == 0
        assert calls == [{"epochs": FAST_EPOCHS, "num_samples": FAST_SAMPLES}]
        assert "Table 2: final validation metric" in capsys.readouterr().out

    def test_fast_elastic_churn(self, capsys):
        assert main(["--only", "Elastic churn", "--fast"]) == 0
        assert "goodput" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "module, lines, digest",
        [
            ("fault_drills", 41, "557825d8521d6b6e"),
            ("brain_autotune", 22, "a6132a3cd0f54e2a"),
            ("fig10_convergence", 22, "baec31aa59c4fd79"),
            ("table2_validation", 8, "0c65515af099e4e2"),
        ],
    )
    def test_fast_drill_transcript_is_pinned(self, capsys, module, lines, digest):
        # Every printed scorecard value, byte for byte; nothing printed
        # depends on the wall clock.
        importlib.import_module(f"repro.experiments.{module}").main(fast=True)
        out = capsys.readouterr().out
        assert (len(out.splitlines()), digest16(out)) == (lines, digest)
