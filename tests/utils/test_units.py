"""Unit conversions and formatting."""

import pytest

from repro.utils.units import (
    BYTES_FP16,
    BYTES_FP32,
    format_seconds,
    gbps_to_bytes_per_sec,
)


class TestConversions:
    def test_25gbe(self):
        # 25 Gbps = 3.125 GB/s — the paper's inter-node link.
        assert gbps_to_bytes_per_sec(25) == pytest.approx(3.125e9)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gbps_to_bytes_per_sec(-1)

    def test_wire_format_constants(self):
        assert BYTES_FP32 == 4
        assert BYTES_FP16 == 2


class TestFormatting:
    def test_format_seconds_ranges(self):
        assert "µs" in format_seconds(5e-6)
        assert "ms" in format_seconds(0.005)
        assert format_seconds(1.5) == "1.50 s"
        assert "min" in format_seconds(150)

    def test_format_seconds_zero_and_negative(self):
        assert format_seconds(0) == "0 s"
        assert format_seconds(-0.005).startswith("-")
