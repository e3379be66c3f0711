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

from repro.brain.base import (
    ACTION_KINDS,
    BRAINS,
    Action,
    Autotuner,
    BrainConfig,
    build_brain,
    register_brain,
)
from repro.brain.driver import BrainDriver
from repro.brain.log import PHASES, BrainLog
from repro.brain.signals import (
    BrainObservation,
    JobSignal,
    NodeSignal,
    build_observation,
)

# Importing the module registers the built-in brains.
from repro.brain import builtins as _builtins  # noqa: E402,F401  (side effect)

__all__ = [
    "BRAINS",
    "ACTION_KINDS",
    "Action",
    "Autotuner",
    "register_brain",
    "BrainConfig",
    "build_brain",
    "BrainDriver",
    "PHASES",
    "BrainLog",
    "NodeSignal",
    "JobSignal",
    "BrainObservation",
    "build_observation",
]
