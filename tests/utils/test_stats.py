"""Welford statistics vs NumPy reference."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.stats import RunningStat


def summarize(values) -> RunningStat:
    stat = RunningStat()
    stat.extend(values)
    return stat


finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestRunningStat:
    @given(values=st.lists(finite_floats, min_size=2, max_size=200))
    def test_matches_numpy(self, values):
        stat = summarize(values)
        assert stat.mean == pytest.approx(np.mean(values), rel=1e-9, abs=1e-6)
        assert stat.std == pytest.approx(np.std(values, ddof=1), rel=1e-6, abs=1e-5)
        assert stat.min == min(values)
        assert stat.max == max(values)

    def test_single_value(self):
        stat = summarize([3.0])
        assert stat.mean == 3.0
        assert stat.std == 0.0

    def test_empty_variance(self):
        assert RunningStat().variance == 0.0

    def test_total(self):
        assert summarize([1.0, 2.0, 3.0]).total == pytest.approx(6.0)

