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
        assert clock.by_category["io"] == pytest.approx(1.5)
        assert clock.by_category["compute"] == pytest.approx(2.0)
        assert clock.now == pytest.approx(3.5)

    def test_uncategorised_time_is_other(self):
        clock = VirtualClock()
        clock.advance(0.25)
        assert dict(clock.by_category) == {"other": 0.25}

    def test_unknown_category_is_zero(self):
        assert VirtualClock().by_category["nothing"] == 0.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-0.1)
