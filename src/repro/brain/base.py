"""Registry-pluggable autotuning brains (``repro.brain``).

An *autotuner* ("Brain", after EasyDL/DLRover's resource-plan
optimizer) watches one :class:`~repro.sched.MultiTenantScheduler`
simulation from the inside and periodically re-plans per-job resources:
it observes per-job throughput, NIC contention, spot pricing, and the
:class:`~repro.faults.health.NodeHealthLedger` suspicion signals, and
answers with :class:`Action`\\ s — migrate a job off a node trending
toward quarantine, pre-emptively shrink onto clean hardware when no
replacement exists, or grow when the marginal node pays for itself with
the expected rollback cost priced in.

Brains register in the ``repro.api`` registry style::

    from repro.brain import Autotuner, register_brain

    @register_brain("my-brain")
    class MyBrain(Autotuner):
        def decide(self, obs):
            return []

Every decision flows through the existing scheduler machinery
(:class:`~repro.sched.policies.ClusterState` transitions +
:class:`~repro.elastic.membership.MembershipView` epochs), never around
it, and the whole layer is closed-form deterministic: no RNG, no wall
clock, decisions are pure functions of the observation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.utils.registry import ConfigError, Registry

#: Brain registry: name -> :class:`Autotuner` subclass.
BRAINS = Registry("brain")

#: The decision kinds a brain may issue.
ACTION_KINDS = ("migrate", "shrink", "grow")


def register_brain(name: str, *, aliases: Iterable[str] = (), overwrite: bool = False):
    """Register an :class:`Autotuner` subclass under ``name``."""
    return BRAINS.register(name, aliases=aliases, overwrite=overwrite)


@dataclass(frozen=True)
class BrainConfig:
    """The ``brain`` section of a sched / serve config.

    Present ⇒ the named :class:`Autotuner` observes every policy run and
    issues migrate/shrink/grow decisions at each tick; absent — or
    ``static`` — ⇒ every code path is byte-identical to a build without
    the subsystem.
    """

    #: Registered brain name or alias (``python -m repro list brains``);
    #: built-ins: ``static`` / ``throughput`` / ``health-migrate``.
    name: str = "static"
    #: Virtual seconds between decision ticks, > 0.
    interval: float = 60.0
    #: Seconds a just-rescaled job (and its vacated node) is frozen
    #: against autoscale reversal, >= 0.
    min_dwell: float = 120.0
    #: Suspicion fraction of the quarantine threshold at which a node
    #: reads as *gray* (migration candidate), in (0, 1].
    migrate_suspicion: float = 0.5
    #: Minimum marginal-node scaling efficiency (net of rollback risk)
    #: required to grow, in (0, 1].
    grow_efficiency: float = 0.7
    #: Marginal efficiency below which the last node is shed, in [0, 1).
    shrink_efficiency: float = 0.25
    #: Weight of the suspicion-priced expected rollback cost subtracted
    #: from a scale-up's efficiency, >= 0.
    rollback_weight: float = 1.0
    #: Applied decisions per tick across all jobs, >= 1.
    max_actions: int = 2

    def validate(self) -> None:
        BRAINS.require(self.name)
        if self.interval <= 0:
            raise ConfigError(f"brain interval must be > 0, got {self.interval}")
        if self.min_dwell < 0:
            raise ConfigError(f"brain min_dwell must be >= 0, got {self.min_dwell}")
        if not 0 < self.migrate_suspicion <= 1:
            raise ConfigError(
                f"brain migrate_suspicion must be in (0, 1], got {self.migrate_suspicion}"
            )
        if not 0 < self.grow_efficiency <= 1:
            raise ConfigError(
                f"brain grow_efficiency must be in (0, 1], got {self.grow_efficiency}"
            )
        if not 0 <= self.shrink_efficiency < 1:
            raise ConfigError(
                f"brain shrink_efficiency must be in [0, 1), got {self.shrink_efficiency}"
            )
        if self.rollback_weight < 0:
            raise ConfigError(
                f"brain rollback_weight must be >= 0, got {self.rollback_weight}"
            )
        if self.max_actions < 1:
            raise ConfigError(f"brain max_actions must be >= 1, got {self.max_actions}")


def build_brain(config) -> "Autotuner":
    """Instantiate the brain a :class:`BrainConfig` names."""
    cls = BRAINS.get(config.name)
    return cls(config)


@dataclass(frozen=True)
class Action:
    """One resource-plan decision for one job.

    ``src`` is the node the job leaves (migrate / shrink), ``dst`` the
    node it takes (migrate / grow).  The :class:`~repro.brain.driver
    .BrainDriver` validates every action against live cluster state and
    the job's gang window before applying it — an infeasible action is
    declined and logged, never partially applied.
    """

    kind: str
    job: str
    src: int | None = None
    dst: int | None = None
    reason: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ACTION_KINDS:
            raise ValueError(
                f"unknown action kind {self.kind!r}; expected one of {ACTION_KINDS}"
            )


class Autotuner:
    """Base class of all brains.

    Subclasses override :meth:`decide`; the driver calls it once per
    decision tick with a :class:`~repro.brain.signals.BrainObservation`
    and applies the returned actions (bounded by ``max_actions`` and the
    per-job dwell window).
    """

    #: Inactive brains never construct a driver, so a run configured
    #: with one stays *byte-identical* to a run with no brain at all
    #: (same event count, same payload) — the ``static`` contract.
    active = True

    def __init__(self, config) -> None:
        self.config = config

    def decide(self, obs) -> list[Action]:  # pragma: no cover - interface
        raise NotImplementedError


__all__ = [
    "BRAINS",
    "ACTION_KINDS",
    "register_brain",
    "BrainConfig",
    "build_brain",
    "Action",
    "Autotuner",
]

# The registry owns its built-ins: whoever imports BRAINS finds them.
from repro.brain import builtins as _builtins  # noqa: E402,F401  (registers them)
