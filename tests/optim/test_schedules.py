"""LR and resolution schedules."""

import pytest

from repro.optim.schedules import (
    PolynomialDecay,
    ProgressiveResizeSchedule,
    ResolutionPhase,
    StepDecay,
    WarmupSchedule,
)


class TestWarmup:
    def test_linear_ramp(self):
        sched = WarmupSchedule(peak=1.0, warmup_epochs=10)
        assert sched.lr(0) == 0.0
        assert sched.lr(5) == pytest.approx(0.5)
        assert sched.lr(10) == 1.0
        assert sched.lr(50) == 1.0

    def test_delegates_after_warmup(self):
        sched = WarmupSchedule(
            peak=1.0, warmup_epochs=5, after=StepDecay(base=1.0, milestones=(10,))
        )
        assert sched.lr(14) == 1.0  # 9 epochs after warmup: before milestone
        assert sched.lr(16) == pytest.approx(0.1)

    def test_negative_epoch(self):
        with pytest.raises(ValueError):
            WarmupSchedule(peak=1.0, warmup_epochs=5).lr(-1)


class TestDecays:
    def test_step_decay_milestones(self):
        sched = StepDecay(base=0.8, milestones=(30, 60, 80), factor=0.1)
        assert sched.lr(29) == pytest.approx(0.8)
        assert sched.lr(30) == pytest.approx(0.08)
        assert sched.lr(85) == pytest.approx(0.0008)

    def test_polynomial_decay(self):
        sched = PolynomialDecay(base=1.0, total_epochs=10, power=2.0)
        assert sched.lr(0) == 1.0
        assert sched.lr(5) == pytest.approx(0.25)
        assert sched.lr(10) == 0.0
        assert sched.lr(20) == 0.0  # clamped

    def test_polynomial_floor(self):
        sched = PolynomialDecay(base=1.0, total_epochs=10, floor=0.1)
        assert sched.lr(10) == pytest.approx(0.1)


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
