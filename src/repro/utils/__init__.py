"""Shared utilities: seeding, partitioning, virtual time, units, tables.

These are deliberately small, dependency-free helpers used across every
subsystem of the reproduction.  Nothing in here is paper-specific.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.utils.clock": ["VirtualClock"],
        "repro.utils.partition": ["chunk_bounds", "chunk_sizes", "partition_layers"],
        "repro.utils.seeding": ["RandomState", "new_rng"],
        "repro.utils.stats": ["RunningStat"],
        "repro.utils.tables": ["format_table", "format_row"],
        "repro.utils.units": [
            "GB",
            "GiB",
            "KB",
            "KiB",
            "MB",
            "MiB",
            "format_seconds",
            "gbps_to_bytes_per_sec",
        ],
    },
)
