"""VirtualClock accounting semantics."""

import pytest

from repro.utils.clock import VirtualClock


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_advance_accumulates(self):
        clock = VirtualClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == 2.0

    def test_advance_returns_new_time(self):
        clock = VirtualClock()
        assert clock.advance(3.0) == 3.0

    def test_categories(self):
        clock = VirtualClock()
        clock.advance(1.0, category="io")
        clock.advance(2.0, category="compute")
        clock.advance(0.5, category="io")
        assert clock.elapsed("io") == pytest.approx(1.5)
        assert clock.elapsed("compute") == pytest.approx(2.0)
        assert clock.elapsed() == pytest.approx(3.5)

    def test_unknown_category_is_zero(self):
        assert VirtualClock().elapsed("nothing") == 0.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-0.1)

    def test_window_measures_inner_time(self):
        clock = VirtualClock()
        clock.advance(1.0)
        with clock.window() as window:
            clock.advance(2.5)
        assert window.duration == pytest.approx(2.5)

    def test_window_duration_live(self):
        clock = VirtualClock()
        with clock.window() as window:
            clock.advance(1.0)
            assert window.duration == pytest.approx(1.0)
            clock.advance(1.0)
        assert window.duration == pytest.approx(2.0)

    def test_snapshot_is_a_copy(self):
        clock = VirtualClock()
        clock.advance(1.0, category="io")
        snap = clock.snapshot()
        snap["io"] = 99.0
        assert clock.elapsed("io") == 1.0
