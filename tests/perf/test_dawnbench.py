"""DAWNBench case study (Tables 4-5)."""

import pytest

from repro.perf.dawnbench import (
    DAWNBENCH_LEADERBOARD,
    DawnbenchSimulator,
    PAPER_RECORD_SECONDS,
    PAPER_TABLE4,
)


@pytest.fixture(scope="module")
def sim():
    return DawnbenchSimulator()


@pytest.fixture(scope="module")
def record(sim):
    return sim.run()


class TestTable4:
    def test_phase_throughputs_near_paper(self, sim):
        for phase in sim.schedule.phases:
            result = sim.phase_result(phase)
            _, paper_throughput, _ = PAPER_TABLE4[phase.resolution]
            assert result.system_throughput == pytest.approx(
                paper_throughput, rel=0.25
            ), f"resolution {phase.resolution}"

    def test_throughput_decreases_with_resolution(self, sim):
        results = [sim.phase_result(p) for p in sim.schedule.phases]
        rates = [r.system_throughput for r in results]
        assert rates == sorted(rates, reverse=True)

    def test_scaling_efficiency_improves_with_resolution_beyond_96(self, sim):
        # Bigger inputs -> more compute to hide communication (Table 4:
        # 70% -> 83% from 128² to 224²).
        results = {p.resolution: sim.phase_result(p) for p in sim.schedule.phases}
        assert results[224].scaling_efficiency > results[128].scaling_efficiency


class TestTable5:
    def test_record_time_near_paper(self, record):
        assert record.total_seconds == pytest.approx(PAPER_RECORD_SECONDS, rel=0.10)
        assert record.total_seconds < 160

    def test_record_beats_leaderboard(self, record):
        # "our method achieves faster training time even with slower
        # interconnects".
        best_published = min(e.seconds for e in DAWNBENCH_LEADERBOARD)
        assert record.total_seconds < best_published + 5

    def test_reaches_93_percent(self, record):
        assert record.reached_target
        assert record.final_top5 >= 0.93

    def test_28_epochs(self, record):
        assert record.epochs == 28
        assert len(record.phases) == 4


class TestAblations:
    def test_all_dense_is_slower(self, sim, record):
        dense = sim.run_all_dense()
        assert dense.total_seconds > record.total_seconds

    def test_all_sparse_is_faster_but_misses_target(self, sim, record):
        # §5.6: "We cannot fully use MSTopK-SGD in the whole of 28 epochs
        # because it would cause accuracy loss."
        sparse = sim.run_all_sparse()
        assert sparse.total_seconds < record.total_seconds
        assert not sparse.reached_target

    def test_accuracy_curve_crosses_at_28(self, sim):
        assert sim.top5_accuracy(27) < 0.93 <= sim.top5_accuracy(28)

    def test_accuracy_monotone(self, sim):
        accs = [sim.top5_accuracy(e) for e in range(29)]
        assert all(a <= b for a, b in zip(accs, accs[1:]))
