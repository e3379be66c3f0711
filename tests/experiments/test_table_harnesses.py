"""Table harnesses (2-5)."""

import pytest

from repro.experiments import (
    table2_validation,
    table3_throughput,
    table4_resolutions,
    table5_dawnbench,
)


class TestTable2:
    @pytest.fixture(scope="class")
    def rows(self):
        # Short run for CI.
        return table2_validation.run(epochs=6, num_samples=512, seed=7)

    def test_three_models(self, rows):
        assert {r.model for r in rows} == {"ResNet-50", "VGG-19", "Transformer"}

    def test_sparse_at_most_slightly_above_dense(self, rows):
        for r in rows:
            assert r.topk <= r.dense + 0.08, r.model
            assert r.mstopk <= r.dense + 0.08, r.model

    def test_everything_learns(self, rows):
        # Chance levels: 1/4 for the 4-class mlp/cnn, 1/32 for the
        # transformer's token vocabulary.  At these short CI settings we
        # only require a clear above-chance signal.
        thresholds = {"ResNet-50": 0.4, "VGG-19": 0.35, "Transformer": 0.05}
        for r in rows:
            assert r.dense > thresholds[r.model], (r.model, r.dense)

    def test_main_prints(self, rows, capsys, monkeypatch):
        # main() trains at the full default settings; the fixture's rows
        # stand in for them, so only the rendering runs here.
        monkeypatch.setattr(table2_validation, "run", lambda **_: rows)
        table2_validation.main()
        out = capsys.readouterr().out
        for model in ("ResNet-50", "VGG-19", "Transformer"):
            assert model in out
        assert "paper" in out


class TestTable3:
    def test_cells_count(self):
        rows = table3_throughput.run()
        assert len(rows) == 12

    def test_main_prints(self, capsys):
        table3_throughput.main()
        out = capsys.readouterr().out
        assert "MSTopK-SGD" in out and "Transformer" in out


class TestTable4:
    def test_four_phases(self):
        results = table4_resolutions.run()
        assert [r.phase.resolution for r in results] == [96, 128, 224, 288]

    def test_main_prints(self, capsys):
        table4_resolutions.main()
        assert "128-GPU" in capsys.readouterr().out


class TestTable5:
    @pytest.fixture(scope="class")
    def outcome(self):
        return table5_dawnbench.run()

    def test_record_fastest(self, outcome):
        from repro.perf.dawnbench import DAWNBENCH_LEADERBOARD

        assert outcome.record.total_seconds < min(
            e.seconds for e in DAWNBENCH_LEADERBOARD
        ) + 5

    def test_ablation_ordering(self, outcome):
        assert (
            outcome.all_sparse.total_seconds
            < outcome.record.total_seconds
            < outcome.all_dense.total_seconds
        )

    def test_main_prints(self, capsys):
        table5_dawnbench.main()
        out = capsys.readouterr().out
        assert "Alibaba" in out and "Ours" in out
