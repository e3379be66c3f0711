"""Autotuning "Brain": online resource-plan optimization (``repro.brain``).

The brain layer watches a :class:`~repro.sched.MultiTenantScheduler`
simulation from the inside — per-job throughput, NIC contention, spot
pricing, and the :class:`~repro.faults.health.NodeHealthLedger`'s
suspicion signals — and periodically re-plans per-job resources:
migrating jobs off nodes trending toward quarantine before they crash,
pre-emptively shrinking onto clean hardware when no replacement exists,
and pricing expected rollback cost into scale-up choices.

Enable it from a sched config::

    {"sched": {..., "brain": {"name": "health-migrate"}}}

or on the CLI with ``--set brain.name=health-migrate``.  ``repro list
brains`` shows the registry; ``brain: {"name": "static"}`` (or leaving
``brain`` unset) is byte-identical to a build without this package.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.brain.base": [
            "ACTION_KINDS",
            "BRAINS",
            "Action",
            "Autotuner",
            "BrainConfig",
            "build_brain",
            "register_brain",
        ],
        "repro.brain.driver": ["BrainDriver"],
        "repro.brain.log": ["PHASES", "BrainLog"],
        "repro.brain.signals": ["BrainObservation", "JobSignal", "NodeSignal", "build_observation"],
    },
)
