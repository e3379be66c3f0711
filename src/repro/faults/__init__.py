"""Registry-pluggable fault injection and recovery drills (``repro.faults``).

The subsystem perturbs *live* simulation state mid-run — node crashes
without the two-minute warning, NIC degradation, persistent stragglers,
checkpoint corruption, AZ-wide spot reclaims — through the existing
elastic-membership and multi-tenant-scheduler machinery, never around
it.  Plans are seeded and deterministic; every injection/detection/
recovery step lands in a wall-clock-free :class:`~repro.faults.log.FaultLog`
so replay is bit-identical at any ``--jobs`` width.  See
``docs/faults.md``.  The recovery drills (:mod:`repro.faults.drill`) sit
on top of ``repro.api`` and are imported by module path.
"""

from repro.faults.health import KIND_WEIGHTS, NodeHealthLedger
from repro.faults.injector import FaultInjector, RunContext
from repro.faults.log import PHASES, FaultLog
from repro.faults.plan import FaultConfig, FaultEvent, FaultPlan, FaultsConfig
from repro.faults.registry import (
    FAULT_TARGETS,
    FAULTS,
    JITTER_DISTS,
    Fault,
    FaultError,
    gray_jitter_draw,
    register_fault,
)
from repro.faults.sched_driver import SchedFaultDriver
from repro.faults.windows import FaultWindows

__all__ = [
    "FAULTS",
    "FAULT_TARGETS",
    "JITTER_DISTS",
    "Fault",
    "FaultError",
    "register_fault",
    "gray_jitter_draw",
    "FaultConfig",
    "FaultsConfig",
    "FaultEvent",
    "FaultPlan",
    "FaultLog",
    "PHASES",
    "FaultInjector",
    "RunContext",
    "SchedFaultDriver",
    "FaultWindows",
    "KIND_WEIGHTS",
    "NodeHealthLedger",
]
