"""The progressive-resizing schedule."""

import pytest

from repro.optim.schedules import ProgressiveResizeSchedule, ResolutionPhase


class TestProgressiveResize:
    def test_dawnbench_recipe_matches_paper(self):
        # §5.6: 13 @ 96², 11 @ 128², 3 @ 224², 1 @ 288² (bs 128).
        sched = ProgressiveResizeSchedule.dawnbench_28_epoch()
        assert sched.total_epochs == 28
        assert sched.phase_at(0).resolution == 96
        assert sched.phase_at(12).resolution == 96
        assert sched.phase_at(13).resolution == 128
        assert sched.phase_at(24).resolution == 224
        assert sched.phase_at(27).resolution == 288
        assert sched.phase_at(27).local_batch == 128

    def test_scheme_switching(self):
        # MSTopK for the warmup phase, dense afterwards (§5.6).
        sched = ProgressiveResizeSchedule.dawnbench_28_epoch()
        assert sched.phase_at(5).comm_scheme == "mstopk"
        assert sched.phase_at(20).comm_scheme == "2dtar"

    def test_epoch_out_of_range(self):
        sched = ProgressiveResizeSchedule.dawnbench_28_epoch()
        with pytest.raises(IndexError):
            sched.phase_at(28)
        with pytest.raises(ValueError):
            sched.phase_at(-1)

    def test_phase_validation(self):
        with pytest.raises(ValueError):
            ResolutionPhase(0, 96, 256, "mstopk")
        with pytest.raises(ValueError):
            ResolutionPhase(1, 0, 256, "mstopk")
        with pytest.raises(ValueError):
            ResolutionPhase(1, 96, 0, "mstopk")
