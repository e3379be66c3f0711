"""Job specifications and runtime records for the multi-tenant scheduler.

A :class:`JobSpec` is everything the scheduler needs to know about one
tenant: the *workload shape* (a calibrated
:class:`~repro.models.profiles.ModelProfile` plus scheme/density/batch,
which the Fig. 1 :class:`~repro.perf.iteration_model.IterationModel`
turns into a per-iteration time), the *resource window* (``min_nodes`` /
``max_nodes`` / ``gpus_per_node`` — the elastic range the autoscaler may
move the job within), and the *policy inputs* (priority, deadline,
spot/on-demand preference, arrival time).

:class:`JobRecord` is the scheduler's mutable per-job state: the current
node allocation, progress, cost integrals, and — crucially — a
:class:`~repro.elastic.membership.MembershipView` driven through every
grow/shrink, so scheduler decisions run the *same* membership-epoch
machinery elastic training uses, and
:meth:`JobRecord.to_trace_schedule` can replay the allocation history
through an actual :class:`~repro.elastic.ElasticTrainer`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.api.registry import MODELS, SCHEMES
from repro.elastic.events import TraceSchedule
from repro.elastic.membership import MembershipView
from repro.models.profiles import ModelProfile, get_profile

#: Accepted billing preferences.
PREFERENCES = ("spot", "on-demand")


@dataclass(frozen=True)
class TrainPayload:
    """An actual trainable workload attached to a scheduled job.

    The scheduler core stays closed-form for *every* job — placement,
    contention and completion times come from the
    :class:`~repro.perf.iteration_model.IterationModel` fast path alone.
    A job carrying a payload additionally *trains*: once the simulation
    has decided its allocation history, that history replays through the
    real :class:`~repro.elastic.ElasticTrainer` (the same machinery
    :meth:`JobRecord.to_trace_schedule` feeds), and the resulting final
    loss lands on the job's outcome.  Payloads never perturb scheduling
    decisions, so stripping them leaves every other outcome field
    bit-identical — the fast-path/trainer-path parity the test suite
    pins.

    Parameters
    ----------
    model:
        Registered model workload name (``python -m repro list models``).
    num_samples:
        Synthetic dataset size for the workload builder.
    local_batch:
        Per-worker batch for the replay run.
    lr / momentum:
        SGD hyperparameters.
    seed:
        Fixes data synthesis, init and the replay's event stream.
    """

    model: str = "mlp-tiny"
    num_samples: int = 96
    local_batch: int = 8
    lr: float = 0.05
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(
                f"unknown payload model {self.model!r}; "
                f"registered: {', '.join(MODELS.available())}"
            )
        if self.num_samples < 1 or self.local_batch < 1:
            raise ValueError("payload num_samples and local_batch must be >= 1")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"payload momentum must be in [0, 1), got {self.momentum}")


@dataclass(frozen=True, slots=True)
class JobSpec:
    """One schedulable training job.

    Also the declarative form: a ``jobs[i]`` entry of a sched config and
    the ``job`` body of a serve ``submit`` op load straight into this
    class (``repro.api.config.load``), so every key, default and range
    check below is declared here and nowhere else.

    Parameters
    ----------
    name:
        Unique job identifier.
    profile:
        Workload profile name (``resnet50`` / ``vgg19`` / ``transformer``,
        resolved through :func:`repro.models.profiles.get_profile`).
    scheme:
        Registered comm-scheme name (any ``repro.api`` registry name or
        alias); timed by that scheme's own time model.
    density:
        Top-k sparsity rho for the sparse schemes, in (0, 1].
    resolution:
        Input resolution in pixels; ``None`` picks 224 when the profile
        is calibrated for it, else the profile's reference resolution
        (0 for the Transformer).
    local_batch:
        Per-GPU batch; ``None`` uses the profile default.
    iterations:
        Total iterations of work the job needs to finish.
    priority:
        Higher-priority jobs are placed first and may *shrink*
        strictly-lower-priority jobs to make room.
    deadline_seconds:
        Optional completion deadline, relative to arrival.
    preference:
        ``"spot"`` (billed at the cloud's spot discount) or
        ``"on-demand"`` (full hourly price).
    min_nodes / max_nodes:
        Elastic allocation window; the autoscaler keeps the job within
        it.  A job is only admitted once ``min_nodes`` fit.
    gpus_per_node:
        GPUs the job uses on each of its nodes; ``None`` means the whole
        node.  Smaller slices let jobs co-locate (and contend).
    arrival_seconds:
        Submission time on the virtual clock.
    payload:
        Optional :class:`TrainPayload`.  ``None`` (the default, and what
        every trace-scale job uses) keeps the job entirely on the
        closed-form fast path; a payload makes the job *train* its
        scheduler-decided allocation history through the real
        :class:`~repro.elastic.ElasticTrainer` after the simulation.
    """

    name: str = "job"
    profile: str = "resnet50"
    scheme: str = "mstopk"
    density: float = 0.01
    resolution: int | None = None
    local_batch: int | None = None
    iterations: int = 200
    priority: int = 0
    deadline_seconds: float | None = None
    preference: str = "spot"
    min_nodes: int = 1
    max_nodes: int = 2
    gpus_per_node: int | None = None
    arrival_seconds: float = 0.0
    payload: TrainPayload | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("job name must be non-empty")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not 0 < self.density <= 1:
            raise ValueError(f"density must be in (0, 1], got {self.density}")
        if self.preference not in PREFERENCES:
            raise ValueError(
                f"preference must be one of {PREFERENCES}, got {self.preference!r}"
            )
        if self.min_nodes < 1 or self.max_nodes < self.min_nodes:
            raise ValueError(
                f"need 1 <= min_nodes <= max_nodes, got "
                f"[{self.min_nodes}, {self.max_nodes}]"
            )
        if self.gpus_per_node is not None and self.gpus_per_node < 1:
            raise ValueError(f"gpus_per_node must be >= 1, got {self.gpus_per_node}")
        if not (math.isfinite(self.arrival_seconds) and self.arrival_seconds >= 0):
            raise ValueError(
                f"arrival_seconds must be finite and >= 0, got {self.arrival_seconds}"
            )
        if self.deadline_seconds is not None and not (
            math.isfinite(self.deadline_seconds) and self.deadline_seconds > 0
        ):
            raise ValueError(
                f"deadline_seconds must be finite and > 0, got {self.deadline_seconds}"
            )
        if self.local_batch is not None and self.local_batch < 1:
            raise ValueError(f"local_batch must be >= 1, got {self.local_batch}")
        # Resolve the profile and scheme eagerly so a typo fails at
        # construction (and config validation), not mid-simulation.
        res, rates = self.resolution, get_profile(self.profile).resolution_throughput
        if res is not None and res not in rates:
            raise ValueError(f"resolution {res}: {self.profile} is calibrated at {sorted(rates)} only")
        SCHEMES.get(self.scheme)

    def check_fits(self, num_nodes: int, gpus_per_node: int) -> None:
        """Raise ``ValueError`` if a cluster of this shape can never run the job."""
        gpus = self.gpus_per_node
        if gpus is not None and gpus > gpus_per_node:
            raise ValueError(
                f"job {self.name!r} wants {gpus} GPUs/node on {gpus_per_node}-GPU nodes"
            )
        if self.min_nodes > num_nodes:
            raise ValueError(
                f"job {self.name!r} needs {self.min_nodes} nodes, cluster has {num_nodes}"
            )

    # -- resolution helpers ---------------------------------------------------
    def model_profile(self) -> ModelProfile:
        return get_profile(self.profile)

    def resolved_resolution(self, profile: ModelProfile | None = None) -> int:
        profile = profile if profile is not None else self.model_profile()
        if self.resolution is not None:
            return self.resolution
        if 224 in profile.resolution_throughput:
            return 224
        return max(profile.resolution_throughput)

    def resolved_local_batch(self, profile: ModelProfile | None = None) -> int:
        profile = profile if profile is not None else self.model_profile()
        if self.local_batch is not None:
            return self.local_batch
        return profile.default_local_batch

    def workload_key(self, gpus_per_node: int) -> tuple:
        """Everything the iteration-time model depends on.

        Two jobs with equal keys are timing-identical at any allocation,
        so the scheduler memoizes per *key*, not per job name — a
        10k-job trace typically collapses to a few dozen keys.
        """
        profile = self.model_profile()
        return (
            profile.name,
            SCHEMES.canonical(self.scheme),
            self.density,
            self.resolved_resolution(profile),
            self.resolved_local_batch(profile),
            gpus_per_node,
        )


def _fields_state(self) -> dict:
    return {name: getattr(self, name) for name in self.__slots__}


def _set_fields_state(self, state: dict) -> None:
    for name, value in state.items():
        object.__setattr__(self, name, value)


# A 10k-job trace holds 10k specs and a run 10k records, so both are
# slotted; they pickle as the plain field dict a ``__dict__`` instance
# would, which is what serve snapshot slots hold.  Set after the class
# statement because ``dataclass(frozen=True, slots=True)`` installs
# list-valued hooks of its own (on 3.10 even over ones in the body).
JobSpec.__getstate__ = _fields_state
JobSpec.__setstate__ = _set_fields_state


#: JobRecord lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"


@dataclass(eq=False, slots=True)
class JobRecord:
    """Mutable scheduler-side state of one job.

    Compared by identity: a record *is* its job, and ``running.remove``
    must never match another record that happens to be field-equal.
    """

    spec: JobSpec
    status: str = QUEUED
    nodes: list[int] = field(default_factory=list)
    progress: float = 0.0
    first_start: float | None = None
    completion: float | None = None
    running_seconds: float = 0.0
    solo_equivalent: float = 0.0
    cost_usd: float = 0.0
    grows: int = 0
    shrinks: int = 0
    #: (iteration, node_count) allocation history; seeded at placement.
    waypoints: list[tuple[int, int]] = field(default_factory=list)
    membership: MembershipView | None = None
    #: Post-simulation :class:`~repro.elastic.ElasticTrainer` replay
    #: result for payload jobs (final loss, revocations, ...); ``None``
    #: for payload-free jobs and jobs that were never placed.
    train_summary: dict | None = None

    @property
    def remaining(self) -> float:
        return max(0.0, self.spec.iterations - self.progress)

    def queue_wait(self, now: float) -> float:
        """Seconds spent waiting before first placement (so far)."""
        started = self.first_start if self.first_start is not None else now
        return max(0.0, started - self.spec.arrival_seconds)

    def jct(self) -> float | None:
        """Job completion time (arrival -> done), if finished."""
        if self.completion is None:
            return None
        return self.completion - self.spec.arrival_seconds

    def deadline_met(self) -> bool | None:
        """Whether the deadline held; ``None`` when no deadline was set."""
        if self.spec.deadline_seconds is None:
            return None
        jct = self.jct()
        return jct is not None and jct <= self.spec.deadline_seconds

    def contention_slowdown(self) -> float:
        """How much co-location cost this job (1.0 = ran as if solo).

        Ratio of the iterations an uncontended run at the same allocation
        history would have finished to the iterations actually finished.
        """
        if self.progress <= 0:
            return 1.0
        return self.solo_equivalent / self.progress

    def mark_waypoint(self) -> None:
        self.waypoints.append((int(round(self.progress)), len(self.nodes)))

    def to_trace_schedule(self, *, warned: bool = True) -> TraceSchedule:
        """The allocation history as a replayable elastic churn trace.

        Feed this to :class:`~repro.elastic.ElasticTrainer` (with
        ``num_nodes`` equal to the first waypoint's count) to actually
        *train* through the membership changes this scheduler decided —
        scale events driven by the scheduler instead of recorded traces.
        """
        if not self.waypoints:
            raise ValueError(f"job {self.spec.name!r} was never placed")
        return TraceSchedule.from_deltas(self.waypoints, warned=warned)

    __getstate__ = _fields_state
    __setstate__ = _set_fields_state


__all__ = [
    "PREFERENCES",
    "TrainPayload",
    "JobSpec",
    "JobRecord",
    "QUEUED",
    "RUNNING",
    "DONE",
]
