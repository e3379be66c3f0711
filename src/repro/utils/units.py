"""Byte/bandwidth/time unit constants and formatting.

The paper mixes decimal network units (25 Gbps Ethernet) with binary
memory units (V100-32GB); we keep both families explicit so cost-model
code never multiplies the wrong constant.
"""

from __future__ import annotations

KB = 1_000
MB = 1_000_000
GB = 1_000_000_000

KiB = 1 << 10
MiB = 1 << 20
GiB = 1 << 30

#: Bytes per element for the two wire formats used in the paper's
#: experiments: FP32 for Figs. 6/8, FP16 for Fig. 7 ("we use the 16-bit
#: floating point (FP16) for each element").
BYTES_FP32 = 4
BYTES_FP16 = 2
BYTES_INT32 = 4


def gbps_to_bytes_per_sec(gbps: float) -> float:
    """Convert link speed in gigabits/s (decimal) to bytes/s."""
    if gbps < 0:
        raise ValueError(f"link speed must be non-negative, got {gbps}")
    return gbps * 1e9 / 8.0


def format_seconds(seconds: float) -> str:
    """Human-readable duration: µs/ms/s/min as appropriate."""
    if seconds < 0:
        return "-" + format_seconds(-seconds)
    if seconds == 0:
        return "0 s"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    if seconds < 120.0:
        return f"{seconds:.2f} s"
    minutes, secs = divmod(seconds, 60.0)
    return f"{int(minutes)} min {secs:.0f} s"


__all__ = [
    "KB",
    "MB",
    "GB",
    "KiB",
    "MiB",
    "GiB",
    "BYTES_FP32",
    "BYTES_FP16",
    "BYTES_INT32",
    "gbps_to_bytes_per_sec",
    "format_seconds",
]
