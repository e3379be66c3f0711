"""Shared utilities: seeding, partitioning, virtual time, units, tables.

These are deliberately small, dependency-free helpers used across every
subsystem of the reproduction.  Nothing in here is paper-specific.
"""

from repro.utils.clock import VirtualClock
from repro.utils.partition import chunk_bounds, chunk_sizes, partition_layers
from repro.utils.seeding import RandomState, new_rng
from repro.utils.stats import RunningStat
from repro.utils.tables import format_table, format_row
from repro.utils.units import (
    GB,
    GiB,
    KB,
    KiB,
    MB,
    MiB,
    format_seconds,
    gbps_to_bytes_per_sec,
)

__all__ = [
    "VirtualClock",
    "chunk_bounds",
    "chunk_sizes",
    "partition_layers",
    "RandomState",
    "new_rng",
    "RunningStat",
    "format_table",
    "format_row",
    "KB",
    "MB",
    "GB",
    "KiB",
    "MiB",
    "GiB",
    "format_seconds",
    "gbps_to_bytes_per_sec",
]
