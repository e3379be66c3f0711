"""TimeBreakdown container."""

import pytest

from repro.comm.breakdown import TimeBreakdown


class TestTimeBreakdown:
    def test_add_and_total(self):
        b = TimeBreakdown()
        b.add("a", 1.0).add("b", 2.0).add("a", 0.5)
        assert b.get("a") == 1.5
        assert b.total == 3.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TimeBreakdown().add("x", -1.0)

    def test_scaled(self):
        b = TimeBreakdown({"a": 2.0, "b": 4.0}).scaled(0.5)
        assert b.get("a") == 1.0 and b.get("b") == 2.0

    def test_scaled_negative_rejected(self):
        with pytest.raises(ValueError):
            TimeBreakdown({"a": 1.0}).scaled(-1)

    def test_fraction(self):
        b = TimeBreakdown({"a": 1.0, "b": 3.0})
        assert b.fraction("b") == pytest.approx(0.75)
        assert TimeBreakdown().fraction("a") == 0.0

    def test_contains_and_getitem(self):
        b = TimeBreakdown({"a": 1.0})
        assert "a" in b and "z" not in b
        assert b["a"] == 1.0

    def test_format_mentions_total(self):
        out = TimeBreakdown({"io": 0.5}).format()
        assert "io" in out and "total" in out
