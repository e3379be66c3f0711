"""The progressive-resizing schedule."""

import pytest

from repro.optim.schedules import ProgressiveResizeSchedule, ResolutionPhase


class TestProgressiveResize:
    def test_dawnbench_recipe_matches_paper(self):
        # §5.6: 13 @ 96², 11 @ 128², 3 @ 224², 1 @ 288² (bs 128).
        sched = ProgressiveResizeSchedule.dawnbench_28_epoch()
        assert sched.total_epochs == 28
        assert [(p.epochs, p.resolution) for p in sched.phases] == [
            (13, 96),
            (11, 128),
            (3, 224),
            (1, 288),
        ]
        assert sched.phases[-1].local_batch == 128

    def test_scheme_switching(self):
        # MSTopK for the warmup phase, dense afterwards (§5.6).
        sched = ProgressiveResizeSchedule.dawnbench_28_epoch()
        assert [p.comm_scheme for p in sched.phases] == ["mstopk"] + ["2dtar"] * 3

    def test_phase_validation(self):
        with pytest.raises(ValueError):
            ResolutionPhase(0, 96, 256, "mstopk")
        with pytest.raises(ValueError):
            ResolutionPhase(1, 0, 256, "mstopk")
        with pytest.raises(ValueError):
            ResolutionPhase(1, 96, 0, "mstopk")
