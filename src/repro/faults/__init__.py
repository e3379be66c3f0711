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

from repro.utils.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.faults.health": ["KIND_WEIGHTS", "NodeHealthLedger"],
        "repro.faults.injector": ["FaultInjector", "RunContext"],
        "repro.faults.log": ["PHASES", "FaultLog"],
        "repro.faults.plan": ["FaultConfig", "FaultEvent", "FaultPlan", "FaultsConfig"],
        "repro.faults.registry": [
            "FAULT_TARGETS",
            "FAULTS",
            "JITTER_DISTS",
            "Fault",
            "FaultError",
            "gray_jitter_draw",
            "register_fault",
        ],
        "repro.faults.sched_driver": ["SchedFaultDriver"],
        "repro.faults.windows": ["FaultWindows"],
    },
)
