"""The ``faults`` config section and the seeded plans resolved from it.

:class:`FaultsConfig` (a list of :class:`FaultConfig` events plus the
checkpoint and node-health knobs) is the section run, sched and serve
configs carry.  A :class:`FaultPlan` is its fully-resolved form: plan
files loaded, flap trains (``repeat``/``period``) expanded into concrete
events, every kind checked against the
:data:`~repro.faults.registry.FAULTS` registry and the target surface,
and every parameter validated — so a typo fails at config-load time with
one clear :class:`~repro.faults.registry.FaultError` instead of
mid-simulation.

The same plan drives an :class:`~repro.faults.injector.FaultInjector`
(elastic runs, ``at`` in wall iterations) or a
:class:`~repro.faults.sched_driver.SchedFaultDriver` (scheduler runs,
``at`` in virtual seconds); both derive all randomness from
``plan.seed``, so replay is bit-identical at any ``--jobs`` width.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
from dataclasses import dataclass, field

from repro.faults.registry import FAULT_TARGETS, FAULTS, FaultError
from repro.utils.eventlog import parse_json
from repro.utils.registry import ConfigError
from repro.utils.seeding import derive_seed


@dataclass(frozen=True)
class FaultConfig:
    """One planned fault event (see ``python -m repro list faults``).

    Only the parameters a kind reads matter; the rest keep their
    defaults.  ``at`` is in *wall iterations* for elastic runs and in
    *virtual seconds* for scheduler runs — the natural clock of each
    simulation.
    """

    #: Registered fault kind or alias (``python -m repro list faults``).
    kind: str = "node-crash"
    #: Injection time (wall iterations for runs, seconds for sched).
    at: float = 0.0
    #: Window length for windowed kinds; 0 = permanent.  For sched
    #: crashes, a nonzero duration schedules the node's repair.
    duration: float = 0.0
    #: nic-degrade: remaining fraction of inter-node bandwidth, (0, 1).
    scale: float = 0.5
    #: straggler: compute slow-down factor, > 1.
    stretch: float = 2.0
    #: az-reclaim: fraction of live nodes reclaimed, (0, 1].
    fraction: float = 0.5
    #: Explicit victim node id (None = seeded pick among live nodes).
    node: int | None = None
    #: Flap support: total occurrences (>= 1) spaced ``period`` apart.
    repeat: int = 1
    #: Spacing between repeats (same unit as ``at``); required > 0 when
    #: ``repeat`` > 1.
    period: float = 0.0
    #: gray-net: packet-loss probability on the sick link, [0, 1);
    #: retransmissions stretch effective bandwidth by 1 / (1 - loss).
    loss_rate: float = 0.05
    #: gray-net: latency-jitter amplitude (>= 0); scales the seeded
    #: per-iteration stochastic comm stretch.
    jitter: float = 0.5
    #: gray-net: distribution the per-iteration jitter draws from
    #: (``exp`` or ``lognormal``).
    jitter_dist: str = "exp"


@dataclass(frozen=True)
class FaultsConfig:
    """The fault plan of a run: seeded, deterministic, replayable.

    Present ⇒ the run (elastic) or scenario (sched) is perturbed by the
    listed events through :mod:`repro.faults`; absent ⇒ every code path
    is bit-identical to a build without the subsystem.
    """

    #: Seed for the plan's victim picks (None = derived from the run
    #: seed, so one master seed still fixes everything).
    seed: int | None = None
    #: Planned fault events.
    events: tuple[FaultConfig, ...] = ()
    #: Path to a JSON plan file (``{"events": [...]}`` or a bare list);
    #: mutually exclusive with inline ``events``.
    plan: str | None = None
    #: Iterations between the *implied* checkpoints the scheduler's
    #: closed form rolls surprise-hit jobs back to (elastic runs use
    #: their real ``elastic.checkpoint_every`` instead), >= 1.
    checkpoint_iterations: int = 25
    #: Virtual-seconds budget for one checkpoint write (elastic runs);
    #: a disk-slow-stretched write exceeding it is abandoned and retried
    #: on the fallback slot.  0 = unlimited (the pre-gray behaviour).
    checkpoint_timeout: float = 0.0
    #: Node suspicion score at which the health ledger quarantines a
    #: repeat offender (> 0); read by the ``fault-aware`` policy.
    quarantine_threshold: float = 2.0
    #: Suspicion half-life in virtual seconds (> 0): how fast the
    #: phi-accrual-style score decays between fault observations.
    health_half_life: float = 300.0
    #: Virtual seconds a quarantined node sits out before a probe
    #: halves its score and returns it to the candidate pool (>= 0).
    probe_cooldown: float = 180.0

    def validate(self) -> None:
        """Range-check the scalar knobs; :meth:`FaultPlan.from_config`
        (which calls this) resolves the events."""
        if self.checkpoint_iterations < 1:
            raise FaultError(
                "faults checkpoint_iterations must be >= 1, "
                f"got {self.checkpoint_iterations}"
            )
        if self.checkpoint_timeout < 0:
            raise FaultError(
                "faults checkpoint_timeout must be >= 0 (0 disables the "
                f"write budget), got {self.checkpoint_timeout}"
            )
        if self.quarantine_threshold <= 0:
            raise FaultError(
                "faults quarantine_threshold must be > 0, "
                f"got {self.quarantine_threshold}"
            )
        if self.health_half_life <= 0:
            raise FaultError(
                f"faults health_half_life must be > 0, got {self.health_half_life}"
            )
        if self.probe_cooldown < 0:
            raise FaultError(
                f"faults probe_cooldown must be >= 0, got {self.probe_cooldown}"
            )


def _load_section(cls, data, label: str):
    """The config codec, imported on use: :mod:`repro.api.config` imports
    this module for the section classes above."""
    from repro.api.config import load

    return load(cls, data, label)


@dataclass(frozen=True)
class FaultEvent:
    """One concrete, validated fault occurrence."""

    fault_id: int
    kind: str  # canonical registry name
    at: float
    duration: float = 0.0
    scale: float = 0.5
    stretch: float = 2.0
    fraction: float = 0.5
    node: int | None = None
    loss_rate: float = 0.05
    jitter: float = 0.5
    jitter_dist: str = "exp"

    @property
    def until(self) -> float:
        """End of the effect window (``inf`` for permanent effects)."""
        return self.at + self.duration if self.duration > 0 else math.inf


@dataclass(frozen=True)
class FaultPlan:
    """A resolved, sorted, seeded sequence of :class:`FaultEvent`."""

    seed: int
    target: str
    events: tuple[FaultEvent, ...] = ()
    #: The validated section the plan came from; the checkpoint and
    #: node-health knobs are read from it, never copied.
    config: FaultsConfig = field(default_factory=FaultsConfig)

    @classmethod
    def from_config(cls, faults, *, seed: int, target: str) -> "FaultPlan":
        """Resolve a :class:`FaultsConfig` (or equivalent dict) into a plan.

        ``seed`` is the *run* seed; the plan seed derives from it unless
        the config pins its own.  Raises :class:`FaultError` on any
        invalid kind, parameter, or plan file.
        """
        if target not in FAULT_TARGETS:
            raise FaultError(
                f"unknown fault target {target!r}; expected one of {FAULT_TARGETS}"
            )
        if isinstance(faults, dict):
            faults = _load_section(FaultsConfig, faults, "faults")
        if not isinstance(faults, FaultsConfig):
            raise FaultError(
                f"'faults' must be a FaultsConfig or mapping, "
                f"got {type(faults).__name__}"
            )
        entries = list(faults.events)
        if faults.plan is not None:
            if entries:
                raise FaultError(
                    "faults 'events' and 'plan' are mutually exclusive: a plan "
                    "file IS the event list"
                )
            entries = _load_plan_file(faults.plan)
        faults.validate()
        plan_seed = faults.seed if faults.seed is not None else derive_seed(seed, "faults")
        events: list[FaultEvent] = []
        for index, entry in enumerate(entries):
            events.extend(_expand(index, entry, target))
        events.sort(key=lambda e: (e.at, e.fault_id))
        return cls(seed=plan_seed, target=target, events=tuple(events), config=faults)

    def to_dicts(self) -> list[dict]:
        return [dataclasses.asdict(event) for event in self.events]


#: FaultConfig fields FaultEvent takes as floats.  A config file may
#: write ``20`` for ``20.0`` and the section keeps what was written (its
#: JSON form is pinned), but event times and factors reach the
#: digest-pinned fault log, where ``20`` and ``20.0`` differ.
_FLOAT_PARAMS = ("duration", "scale", "stretch", "fraction", "loss_rate", "jitter")


#: Fault ids are ``index * _ID_STRIDE + occurrence``: one entry expands
#: (eagerly) into at most this many events, or its ids would run into
#: the next entry's and mix their per-fault latencies in the log.
_ID_STRIDE = 1000


def _expand(index: int, entry: FaultConfig, target: str) -> list[FaultEvent]:
    """Validate one config entry and expand its repeat train."""
    label = f"faults.events[{index}]"
    kind = FAULTS.canonical(entry.kind)
    if kind is None:
        raise FaultError(
            f"{label}: unknown fault {entry.kind!r}; "
            f"registered: {', '.join(FAULTS.available())}"
        )
    fault = FAULTS.get(kind)()
    if target not in fault.targets:
        raise FaultError(
            f"{label}: fault {kind!r} cannot target {target!r} "
            f"(targets: {', '.join(sorted(fault.targets))})"
        )
    at, period = float(entry.at), float(entry.period)
    params = {name: float(getattr(entry, name)) for name in _FLOAT_PARAMS}
    if at < 0:
        raise FaultError(f"{label}: at must be >= 0, got {at}")
    if params["duration"] < 0:
        raise FaultError(f"{label}: duration must be >= 0, got {params['duration']}")
    if entry.repeat < 1:
        raise FaultError(f"{label}: repeat must be >= 1, got {entry.repeat}")
    if entry.repeat > _ID_STRIDE:
        raise FaultError(
            f"{label}: repeat must be <= {_ID_STRIDE}, got {entry.repeat}"
        )
    if entry.repeat > 1 and period <= 0:
        raise FaultError(
            f"{label}: repeat > 1 needs a positive period, got {period}"
        )
    if period < 0:
        raise FaultError(f"{label}: period must be >= 0, got {period}")
    events = []
    for occurrence in range(entry.repeat):
        event = FaultEvent(
            fault_id=index * _ID_STRIDE + occurrence,
            kind=kind,
            at=at + occurrence * period,
            node=entry.node,
            jitter_dist=entry.jitter_dist,
            **params,
        )
        try:
            fault.check(event)
        except FaultError as exc:
            raise FaultError(f"{label}: {exc}") from exc
        events.append(event)
    return events


def _load_plan_file(path_str: str) -> list[FaultConfig]:
    """Load ``{"events": [...]}`` (or a bare list) from a JSON plan file."""
    path = pathlib.Path(path_str)
    if not path.exists():
        raise FaultError(f"fault plan file not found: {path}")
    try:
        data = parse_json(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FaultError(f"fault plan file {path} is not valid JSON: {exc}") from exc
    if isinstance(data, dict):
        if set(data) - {"events"}:
            raise FaultError(
                f"fault plan file {path} has unknown top-level key(s) "
                f"{sorted(set(data) - {'events'})}; expected 'events'"
            )
        data = data.get("events", [])
    if not isinstance(data, list):
        raise FaultError(
            f"fault plan file {path} must hold a list of fault mappings"
        )
    try:
        return [
            _load_section(FaultConfig, item, f"fault plan file {path} entry {i}")
            for i, item in enumerate(data)
        ]
    except ConfigError as exc:
        raise FaultError(str(exc)) from exc


__all__ = ["FaultConfig", "FaultsConfig", "FaultEvent", "FaultPlan"]
