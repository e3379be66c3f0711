"""Declarative run configuration — one JSON file fully specifies a run.

:class:`RunConfig` nests :class:`ClusterConfig` (where), :class:`CommConfig`
(how gradients move), :class:`TrainConfig` (what trains) and an optional
:class:`ElasticConfig` (churn).  It round-trips losslessly through
``to_dict``/``from_dict`` and ``to_json``/``from_json``, rejects unknown
keys with the list of accepted ones, and validates every component name
against the :mod:`repro.api.registry` registries — a typo fails at load
time, not an hour into a sweep.

``apply_overrides`` implements the CLI's ``--set section.key=value``
(values parsed as JSON, falling back to strings).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import pathlib
import types
import typing
from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, Sequence


class ConfigError(ValueError):
    """A malformed or unresolvable run configuration."""


@functools.cache
def _scalar_fields(cls) -> dict[str, tuple[type, bool]]:
    """``{field: (scalar type, nullable)}`` for the int/float/str/bool
    (and ``| None``) fields of a config dataclass; every other field is
    checked by the code that parses it."""
    scalars = {}
    for name, hint in typing.get_type_hints(cls).items():
        args = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
        kinds = [arg for arg in args if arg is not type(None)]
        if len(kinds) == 1 and kinds[0] in (int, float, str, bool):
            scalars[name] = (kinds[0], len(args) > 1)
    return scalars


def _check_keys(section: str, data: dict, cls) -> None:
    """Reject unknown keys and wrong-typed scalar values of a section."""
    allowed = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) {', '.join(map(repr, unknown))} in {section!r}; "
            f"accepted keys: {', '.join(sorted(allowed))}"
        )
    scalars = _scalar_fields(cls)
    for key, value in data.items():
        kind, nullable = scalars.get(key, (None, True))
        if kind is None or (value is None and nullable):
            continue
        # JSON has one number type: an int is a fine float, but a bool
        # (an int subclass) is never a number here.
        accepted = (int, float) if kind is float else kind
        if not isinstance(value, accepted) or (kind is not bool and isinstance(value, bool)):
            raise ConfigError(
                f"{section}.{key} must be {kind.__name__}"
                f"{' or null' if nullable else ''}, got {value!r}"
            )


def _from_dict(section: str, data: Any, cls):
    if not isinstance(data, dict):
        raise ConfigError(f"{section!r} must be a mapping, got {type(data).__name__}")
    _check_keys(section, data, cls)
    return cls(**data)


def _validate_cluster(cluster: "ClusterConfig") -> None:
    from repro.api import registry

    if cluster.instance not in registry.CLUSTERS:
        raise ConfigError(
            f"unknown cluster instance {cluster.instance!r}; "
            f"registered: {', '.join(registry.CLUSTERS.available())}"
        )
    if cluster.num_nodes < 1 or cluster.gpus_per_node < 1:
        raise ConfigError("cluster num_nodes and gpus_per_node must be >= 1")


class _JsonConfig:
    """JSON file/text round trip of the three top-level configs (each
    names its ``KIND`` and supplies ``from_dict`` / ``to_dict``)."""

    KIND: ClassVar[str]

    @classmethod
    def from_json(cls, text: str, *, validate: bool = True):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON {cls.KIND} config: {exc}") from exc
        return cls.from_dict(data, validate=validate)

    @classmethod
    def from_file(cls, path: str | pathlib.Path, *, validate: bool = True):
        path = pathlib.Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        return cls.from_json(path.read_text(), validate=validate)

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"


@dataclass(frozen=True)
class ClusterConfig:
    """Virtual cluster shape: a registered instance preset and node count."""

    #: Registered cluster preset name or alias (``python -m repro list
    #: clusters``); built-ins: ``aws`` / ``aliyun`` / ``tencent``.
    instance: str = "tencent"
    #: Number of nodes (whole cloud instances), >= 1.
    num_nodes: int = 2
    #: GPUs per node, >= 1 (overrides the preset's count — presets model
    #: 8xV100 instances, small simulations usually want 2).
    gpus_per_node: int = 2


@dataclass(frozen=True)
class CommConfig:
    """Gradient aggregation: registered scheme (+ optional compressor)."""

    #: Registered comm-scheme name or alias (``python -m repro list
    #: schemes``); built-ins: ``dense`` / ``dense-ring`` / ``2dtar`` /
    #: ``topk`` / ``gtopk`` / ``mstopk`` / ``naiveag-mstopk``.
    scheme: str = "mstopk"
    #: Top-k sparsity rho in (0, 1] (fraction of gradient entries sent);
    #: ignored by the dense schemes.
    density: float = 0.05
    #: Bytes per wire element for dense traffic (4 = FP32, 2 = FP16).
    wire_bytes: int = 4
    #: MSTopK sampling iterations (Algorithm 1's threshold search).
    n_samplings: int = 30
    #: Optional registered compressor name (``python -m repro list
    #: compressors``) overriding the scheme default; dense schemes
    #: reject one at build time.
    compressor: str | None = None


@dataclass(frozen=True)
class TrainConfig:
    """Workload and optimisation hyperparameters.

    Deliberately explicit: unlike ``ConvergenceRunner`` (whose
    ``_WORKLOAD_HP`` table nudges lr/density per workload), a config
    applies exactly the values written in it.
    """

    #: Registered model workload name or alias (``python -m repro list
    #: models``); built-ins: ``mlp`` / ``mlp-tiny`` / ``cnn`` /
    #: ``resnet`` / ``transformer``.
    model: str = "mlp"
    #: Training epochs (synchronous runs only; elastic runs are
    #: iteration-driven via ``elastic.iterations``), >= 1.
    epochs: int = 5
    #: Synthetic dataset size in samples, >= 1.
    num_samples: int = 512
    #: Per-worker batch size, >= 1 (global batch = local_batch x world).
    local_batch: int = 16
    #: SGD learning rate.
    lr: float = 0.05
    #: SGD momentum coefficient in [0, 1).
    momentum: float = 0.9
    #: Seed for dataset synthesis; defaults to the run seed, so one seed
    #: fixes everything while sweeps can pin the data and vary the rest.
    data_seed: int | None = None


@dataclass(frozen=True)
class ElasticConfig:
    """Churn schedule + recovery constants for an elastic run.

    Present ⇒ the run uses :class:`~repro.elastic.ElasticTrainer`
    (iteration-driven, so ``train.epochs`` is unused — ``iterations``
    governs run length); absent ⇒ the synchronous epoch-driven trainer.
    """

    #: Useful training iterations to complete, >= 1.
    iterations: int = 120
    #: Churn schedule: ``poisson`` (memoryless spot revocations) or
    #: ``none`` (static cluster); see :data:`ELASTIC_SCHEDULES`.
    schedule: str = "poisson"
    #: Expected revocations per node per iteration, >= 0.
    rate: float = 0.01
    #: Share of revocations arriving with the advance warning, in [0, 1].
    warned_fraction: float = 0.5
    #: Mean iterations until a replacement node arrives (0 = no backfill).
    rejoin_delay: int = 20
    #: Floor the cluster never shrinks below, in [1, cluster.num_nodes].
    min_nodes: int = 1
    #: Useful iterations between periodic rollback checkpoints, >= 1.
    checkpoint_every: int = 25
    #: Virtual forward+backward seconds per iteration at spec speed.
    compute_seconds: float = 0.05
    #: Virtual seconds to write one checkpoint.
    checkpoint_seconds: float = 1.0
    #: Virtual seconds for a rescale/restore cycle.
    restart_seconds: float = 15.0
    #: Advance-warning window in seconds (the two-minute warning).
    warning_seconds: float = 120.0
    #: Gradient size (elements) for the analytic comm-time model
    #: (None = the model's actual parameter count).
    timing_d: int | None = None
    #: Straggler lognormal sigma (0 disables the variability model).
    sigma: float = 0.0


#: Schedules ElasticConfig understands (kept next to the dataclass, not
#: in the registry: they are modes of one subsystem, not plugins).
ELASTIC_SCHEDULES = ("poisson", "none")


@dataclass(frozen=True)
class ExecConfig:
    """Where compute runs: execution backend + pool width.

    Never changes *what* is computed — every backend is bit-identical to
    ``serial`` (results are pinned by the parity and invariance suites),
    so this section is pure wall-clock policy.
    """

    #: Registered execution backend (:data:`repro.exec.BACKENDS`);
    #: built-ins: ``serial`` (inline, the default) / ``process``
    #: (shared-memory worker pool on real CPU cores).
    backend: str = "serial"
    #: Pool width for parallel backends: worker processes for the
    #: trainer's per-worker compute and for sweep fan-out (0 = all
    #: usable cores; ignored by ``serial``).
    jobs: int = 1
    #: Multiprocessing start method (``fork`` / ``spawn`` /
    #: ``forkserver``; None = platform preference — ``fork`` where
    #: available, else ``spawn``).
    start_method: str | None = None


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
    #: Planned fault events (each a :class:`FaultConfig`).
    events: tuple = ()
    #: Path to a JSON plan file (``{"events": [...]}`` or a bare list);
    #: mutually exclusive with inline ``events``.
    plan: str | None = None
    #: Iterations between the *implied* checkpoints the scheduler's
    #: closed form rolls surprise-hit jobs back to (elastic runs use
    #: their real ``elastic.checkpoint_every`` instead).
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


def _faults_from_dict(data: Any) -> FaultsConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"'faults' must be a mapping, got {type(data).__name__}")
    _check_keys("faults", data, FaultsConfig)
    kwargs: dict[str, Any] = {k: v for k, v in data.items() if k != "events"}
    events = data.get("events", ())
    if not isinstance(events, (list, tuple)):
        raise ConfigError("'faults.events' must be a list of fault mappings")
    parsed = []
    for i, event in enumerate(events):
        if isinstance(event, FaultConfig):
            parsed.append(event)
        else:
            parsed.append(_from_dict(f"faults.events[{i}]", event, FaultConfig))
    kwargs["events"] = tuple(parsed)
    return FaultsConfig(**kwargs)


def _faults_to_dict(faults: FaultsConfig) -> dict:
    data = dataclasses.asdict(faults)
    # Lists, not tuples, so JSON round-trips and --set can index them.
    data["events"] = [dict(event) for event in data["events"]]
    return data


def _validate_faults(faults: FaultsConfig, *, seed: int, target: str) -> None:
    """Resolve the plan (kinds, params, plan file) so typos fail at load."""
    from repro.faults.plan import FaultPlan

    FaultPlan.from_config(faults, seed=seed, target=target)


@dataclass(frozen=True)
class BrainConfig:
    """The autotuning brain of a sched scenario (``repro.brain``).

    Present ⇒ the named :class:`~repro.brain.Autotuner` observes every
    policy run and issues migrate/shrink/grow decisions at each tick;
    absent — or ``static`` — ⇒ every code path is byte-identical to a
    build without the subsystem.
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


def _validate_brain(brain: BrainConfig) -> None:
    from repro.brain.base import BRAINS

    if brain.name not in BRAINS:
        raise ConfigError(
            f"unknown brain {brain.name!r}; "
            f"registered: {', '.join(BRAINS.available())}"
        )
    if brain.interval <= 0:
        raise ConfigError(f"brain interval must be > 0, got {brain.interval}")
    if brain.min_dwell < 0:
        raise ConfigError(f"brain min_dwell must be >= 0, got {brain.min_dwell}")
    if not 0 < brain.migrate_suspicion <= 1:
        raise ConfigError(
            f"brain migrate_suspicion must be in (0, 1], got {brain.migrate_suspicion}"
        )
    if not 0 < brain.grow_efficiency <= 1:
        raise ConfigError(
            f"brain grow_efficiency must be in (0, 1], got {brain.grow_efficiency}"
        )
    if not 0 <= brain.shrink_efficiency < 1:
        raise ConfigError(
            f"brain shrink_efficiency must be in [0, 1), got {brain.shrink_efficiency}"
        )
    if brain.rollback_weight < 0:
        raise ConfigError(
            f"brain rollback_weight must be >= 0, got {brain.rollback_weight}"
        )
    if brain.max_actions < 1:
        raise ConfigError(f"brain max_actions must be >= 1, got {brain.max_actions}")


@dataclass(frozen=True)
class RunConfig(_JsonConfig):
    """Everything one run needs, serializable and seed-complete."""

    KIND: ClassVar[str] = "run"

    #: Run label (non-empty); becomes the ``run_<name>`` bench id.
    name: str = "run"
    #: Master seed fixing data synthesis, init, sampling and churn.
    seed: int = 0
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    comm: CommConfig = field(default_factory=CommConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    elastic: ElasticConfig | None = None
    #: Optional fault plan (requires ``elastic``); see ``docs/faults.md``.
    faults: FaultsConfig | None = None
    exec: ExecConfig = field(default_factory=ExecConfig)

    # -- construction ------------------------------------------------------
    @classmethod
    def from_dict(cls, data: dict, *, validate: bool = True) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"run config must be a mapping, got {type(data).__name__}")
        _check_keys("run", data, cls)
        kwargs: dict[str, Any] = {
            k: data[k] for k in ("name", "seed") if k in data
        }
        if "cluster" in data:
            kwargs["cluster"] = _from_dict("cluster", data["cluster"], ClusterConfig)
        if "comm" in data:
            kwargs["comm"] = _from_dict("comm", data["comm"], CommConfig)
        if "train" in data:
            kwargs["train"] = _from_dict("train", data["train"], TrainConfig)
        if data.get("elastic") is not None:
            kwargs["elastic"] = _from_dict("elastic", data["elastic"], ElasticConfig)
        if data.get("faults") is not None:
            kwargs["faults"] = _faults_from_dict(data["faults"])
        if "exec" in data:
            kwargs["exec"] = _from_dict("exec", data["exec"], ExecConfig)
        config = cls(**kwargs)
        if validate:
            config.validate()
        return config

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        data = {
            "name": self.name,
            "seed": self.seed,
            "cluster": dataclasses.asdict(self.cluster),
            "comm": dataclasses.asdict(self.comm),
            "train": dataclasses.asdict(self.train),
            "exec": dataclasses.asdict(self.exec),
        }
        if self.elastic is not None:
            data["elastic"] = dataclasses.asdict(self.elastic)
        if self.faults is not None:
            data["faults"] = _faults_to_dict(self.faults)
        return data

    # -- validation --------------------------------------------------------
    def validate(self) -> "RunConfig":
        """Check names against the registries and values for sanity."""
        from repro.api import registry

        if not self.name:
            raise ConfigError("run 'name' must be a non-empty string")
        _validate_cluster(self.cluster)
        if self.comm.scheme not in registry.SCHEMES:
            raise ConfigError(
                f"unknown comm scheme {self.comm.scheme!r}; "
                f"registered: {', '.join(registry.SCHEMES.available())}"
            )
        if self.comm.compressor is not None and self.comm.compressor not in registry.COMPRESSORS:
            raise ConfigError(
                f"unknown compressor {self.comm.compressor!r}; "
                f"registered: {', '.join(registry.COMPRESSORS.available())}"
            )
        if self.train.model not in registry.MODELS:
            raise ConfigError(
                f"unknown model {self.train.model!r}; "
                f"registered: {', '.join(registry.MODELS.available())}"
            )
        if not 0 < self.comm.density <= 1:
            raise ConfigError(f"comm density must be in (0, 1], got {self.comm.density}")
        if self.train.epochs < 1 or self.train.local_batch < 1 or self.train.num_samples < 1:
            raise ConfigError("train epochs, local_batch and num_samples must be >= 1")
        _validate_exec(self.exec)
        if self.elastic is not None:
            if self.elastic.schedule not in ELASTIC_SCHEDULES:
                raise ConfigError(
                    f"unknown elastic schedule {self.elastic.schedule!r}; "
                    f"accepted: {', '.join(ELASTIC_SCHEDULES)}"
                )
            if self.elastic.iterations < 1:
                raise ConfigError("elastic iterations must be >= 1")
            if self.elastic.rate < 0:
                raise ConfigError("elastic rate must be >= 0")
            if self.elastic.min_nodes < 1 or self.elastic.min_nodes > self.cluster.num_nodes:
                raise ConfigError(
                    "elastic min_nodes must be in [1, cluster.num_nodes]"
                )
        if self.faults is not None:
            if self.elastic is None:
                raise ConfigError(
                    "faults require an 'elastic' section: fault drills perturb "
                    "the elastic trainer (add \"elastic\": {} or "
                    "--set elastic.schedule=none)"
                )
            _validate_faults(self.faults, seed=self.seed, target="run")
        return self


# ---------------------------------------------------------------------------
# Multi-tenant scheduling configs (repro.sched)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JobConfig:
    """One schedulable job of a :class:`SchedConfig` scenario.

    The scalar mirror of :class:`repro.sched.JobSpec`; see that class
    for full semantics.  Validation happens by constructing the spec.
    """

    #: Unique job identifier within the scenario.
    name: str = "job"
    #: Workload profile: ``resnet50`` / ``vgg19`` / ``transformer``
    #: (:data:`repro.models.profiles.PROFILES`).
    profile: str = "resnet50"
    #: Registered comm-scheme name or alias (``python -m repro list
    #: schemes``); timed via its Table 3 archetype.
    scheme: str = "mstopk"
    #: Top-k sparsity rho in (0, 1] for the sparse schemes.
    density: float = 0.01
    #: Input resolution in pixels (None = 224 when calibrated, else the
    #: profile's reference; 0 for the Transformer).
    resolution: int | None = None
    #: Per-GPU batch (None = the profile's default).
    local_batch: int | None = None
    #: Iterations of work to complete, >= 1.
    iterations: int = 200
    #: Placement priority; higher may shrink strictly-lower ones.
    priority: int = 0
    #: Completion deadline in seconds after arrival (None = none).
    deadline_seconds: float | None = None
    #: Billing: ``spot`` (discounted) or ``on-demand`` (full price).
    preference: str = "spot"
    #: Elastic allocation window in whole nodes, 1 <= min <= max.
    min_nodes: int = 1
    max_nodes: int = 2
    #: GPUs used on each allocated node (None = the whole node); smaller
    #: slices let jobs co-locate and contend for the NIC.
    gpus_per_node: int | None = None
    #: Submission time on the virtual clock, seconds >= 0.
    arrival_seconds: float = 0.0
    #: Optional training payload (:class:`repro.sched.TrainPayload`
    #: fields as a mapping, e.g. ``{"model": "mlp-tiny", "seed": 3}``);
    #: payload jobs replay their scheduler-decided allocation history
    #: through the real ElasticTrainer after the simulation.
    payload: dict | None = None

    def to_spec(self):
        """Build the runtime :class:`repro.sched.JobSpec` (validates)."""
        from repro.sched.job import JobSpec, TrainPayload

        data = dataclasses.asdict(self)
        payload = data.pop("payload", None)
        try:
            if payload is not None:
                if not isinstance(payload, dict):
                    raise ValueError(
                        f"payload must be a mapping, got {type(payload).__name__}"
                    )
                data["payload"] = TrainPayload(**payload)
            return JobSpec(**data)
        except (TypeError, ValueError, KeyError) as exc:
            raise ConfigError(f"job {self.name!r}: {exc}") from exc


@dataclass(frozen=True)
class SchedConfig(_JsonConfig):
    """A multi-tenant scheduling scenario: shared cluster + job queue.

    ``python -m repro sched --config <file>`` runs the scenario once per
    entry in ``policies`` and emits one combined BENCH payload, so a
    single config file is a policy comparison.
    """

    KIND: ClassVar[str] = "sched"

    #: Scenario label (non-empty); becomes the ``sched_<name>`` bench id.
    name: str = "sched"
    #: Recorded for provenance; the simulation is deterministic.
    seed: int = 0
    #: The shared cluster all jobs contend for.
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    #: Registered placement policies to compare (``python -m repro list
    #: policies``); built-ins: ``bin-pack`` / ``spread`` /
    #: ``network-aware``.
    policies: tuple = ("bin-pack",)
    #: The job queue (>= 1 job; names unique).  Ignored when ``trace``
    #: is set (the two are mutually exclusive in config files).
    jobs: tuple = (JobConfig(),)
    #: Path to a cluster trace (``.jsonl`` file or PAI-style CSV
    #: directory; see ``docs/traces.md``).  When set, the job queue is
    #: loaded from the trace instead of ``jobs`` and the CLI reports
    #: JCT/queue-wait distributions instead of per-job rows.
    trace: str | None = None
    #: Optional fault plan perturbing the shared cluster (node crashes,
    #: AZ reclaims, NIC degradation, stragglers); see ``docs/faults.md``.
    faults: FaultsConfig | None = None
    #: Optional autotuning brain re-planning per-job resources online
    #: (migrate/shrink/grow); see ``docs/brain.md``.
    brain: BrainConfig | None = None
    #: Where the per-policy simulations run: the ``process`` backend
    #: fans the policy grid across cores (results identical to serial).
    exec: ExecConfig = field(default_factory=ExecConfig)

    @classmethod
    def from_dict(cls, data: dict, *, validate: bool = True) -> "SchedConfig":
        if not isinstance(data, dict):
            raise ConfigError(
                f"sched config must be a mapping, got {type(data).__name__}"
            )
        _check_keys("sched", data, cls)
        kwargs: dict[str, Any] = {k: data[k] for k in ("name", "seed") if k in data}
        if "cluster" in data:
            kwargs["cluster"] = _from_dict("cluster", data["cluster"], ClusterConfig)
        if "policies" in data:
            policies = data["policies"]
            if isinstance(policies, str):
                policies = [policies]
            if not isinstance(policies, (list, tuple)):
                raise ConfigError("'policies' must be a list of policy names")
            kwargs["policies"] = tuple(policies)
        if "jobs" in data and "trace" in data and data["trace"] is not None:
            raise ConfigError(
                "'jobs' and 'trace' are mutually exclusive: a trace IS the "
                "job queue"
            )
        if "jobs" in data:
            jobs = data["jobs"]
            if not isinstance(jobs, (list, tuple)):
                raise ConfigError("'jobs' must be a list of job mappings")
            kwargs["jobs"] = tuple(
                _from_dict(f"jobs[{i}]", job, JobConfig) for i, job in enumerate(jobs)
            )
        if "trace" in data and data["trace"] is not None:
            if not isinstance(data["trace"], str) or not data["trace"]:
                raise ConfigError("'trace' must be a non-empty path string")
            kwargs["trace"] = data["trace"]
        if data.get("faults") is not None:
            kwargs["faults"] = _faults_from_dict(data["faults"])
        if data.get("brain") is not None:
            kwargs["brain"] = _from_dict("brain", data["brain"], BrainConfig)
        if "exec" in data:
            kwargs["exec"] = _from_dict("exec", data["exec"], ExecConfig)
        config = cls(**kwargs)
        if validate:
            config.validate()
        return config

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "cluster": dataclasses.asdict(self.cluster),
            "policies": list(self.policies),
            # jobs/trace are mutually exclusive; emit whichever is live
            # so the dict survives a from_dict round trip.
            **(
                {"trace": self.trace}
                if self.trace is not None
                else {"jobs": [dataclasses.asdict(job) for job in self.jobs]}
            ),
            **(
                {"faults": _faults_to_dict(self.faults)}
                if self.faults is not None
                else {}
            ),
            **(
                {"brain": dataclasses.asdict(self.brain)}
                if self.brain is not None
                else {}
            ),
            "exec": dataclasses.asdict(self.exec),
        }

    def validate(self) -> "SchedConfig":
        if not self.name:
            raise ConfigError("sched 'name' must be a non-empty string")
        _validate_cluster(self.cluster)
        if not self.policies:
            raise ConfigError("sched 'policies' must name at least one policy")
        from repro.sched.policies import POLICIES

        for policy in self.policies:
            if policy not in POLICIES:
                raise ConfigError(
                    f"unknown policy {policy!r}; "
                    f"registered: {', '.join(POLICIES.available())}"
                )
        canonical = [POLICIES.canonical(p) for p in self.policies]
        duplicates = sorted({p for p in canonical if canonical.count(p) > 1})
        if duplicates:
            raise ConfigError(
                f"policies resolve to duplicate entries: {', '.join(duplicates)}"
            )
        if self.faults is not None:
            _validate_faults(self.faults, seed=self.seed, target="sched")
        if self.brain is not None:
            _validate_brain(self.brain)
        if self.trace is not None:
            if not isinstance(self.trace, str) or not self.trace:
                raise ConfigError("'trace' must be a non-empty path string")
            # Trace contents (existence, referential integrity, workload
            # names) are validated when the trace is loaded at run time;
            # the inline-jobs checks below do not apply.
            _validate_exec(self.exec)
            return self
        if not self.jobs:
            raise ConfigError("sched 'jobs' must contain at least one job")
        names = [job.name for job in self.jobs]
        if len(set(names)) != len(names):
            raise ConfigError(f"job names must be unique, got {sorted(names)}")
        for job in self.jobs:
            spec = job.to_spec()  # field-level validation
            if spec.min_nodes > self.cluster.num_nodes:
                raise ConfigError(
                    f"job {job.name!r} needs {spec.min_nodes} nodes, cluster "
                    f"has {self.cluster.num_nodes}"
                )
            gpus = spec.gpus_per_node
            if gpus is not None and gpus > self.cluster.gpus_per_node:
                raise ConfigError(
                    f"job {job.name!r} wants {gpus} GPUs/node on "
                    f"{self.cluster.gpus_per_node}-GPU nodes"
                )
        _validate_exec(self.exec)
        return self


@dataclass(frozen=True)
class ServeConfig(_JsonConfig):
    """The always-on scheduler daemon (``python -m repro serve``).

    Unlike :class:`SchedConfig` — one pre-declared batch, one policy
    *comparison* — a serve config describes a single live service: one
    placement policy, jobs submitted while the clock runs, durable state
    under ``--state-dir``.  See ``docs/serve.md``.
    """

    KIND: ClassVar[str] = "serve"

    #: Service label (non-empty); becomes the ``serve_<name>`` bench id.
    name: str = "serve"
    #: Seeds the fault plan; the service itself is deterministic.
    seed: int = 0
    #: The shared cluster the daemon schedules onto.
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    #: The single placement policy the live service runs.
    policy: str = "bin-pack"
    #: Optional fault plan perturbing the live cluster.
    faults: FaultsConfig | None = None
    #: Optional autotuning brain re-planning resources online.
    brain: BrainConfig | None = None
    #: Admission backlog bound (pending + queued); submissions beyond it
    #: are shed with a structured ``queue full`` rejection.
    queue_limit: int = 64
    #: Snapshot cadence: persist engine state every N applied ops
    #: (bounds journal-replay length on recovery).
    snapshot_every: int = 8
    #: Virtual seconds one ``tick`` op advances when no ``until`` given.
    tick_seconds: float = 300.0
    #: Event-loop iterations allowed per tick/drain (runaway guard).
    max_events_per_tick: int = 10_000

    @classmethod
    def from_dict(cls, data: dict, *, validate: bool = True) -> "ServeConfig":
        if not isinstance(data, dict):
            raise ConfigError(
                f"serve config must be a mapping, got {type(data).__name__}"
            )
        _check_keys("serve", data, cls)
        kwargs: dict[str, Any] = {
            k: data[k]
            for k in (
                "name", "seed", "policy", "queue_limit", "snapshot_every",
                "tick_seconds", "max_events_per_tick",
            )
            if k in data
        }
        if "cluster" in data:
            kwargs["cluster"] = _from_dict("cluster", data["cluster"], ClusterConfig)
        if data.get("faults") is not None:
            kwargs["faults"] = _faults_from_dict(data["faults"])
        if data.get("brain") is not None:
            kwargs["brain"] = _from_dict("brain", data["brain"], BrainConfig)
        config = cls(**kwargs)
        if validate:
            config.validate()
        return config

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "cluster": dataclasses.asdict(self.cluster),
            "policy": self.policy,
            **(
                {"faults": _faults_to_dict(self.faults)}
                if self.faults is not None
                else {}
            ),
            **(
                {"brain": dataclasses.asdict(self.brain)}
                if self.brain is not None
                else {}
            ),
            "queue_limit": self.queue_limit,
            "snapshot_every": self.snapshot_every,
            "tick_seconds": self.tick_seconds,
            "max_events_per_tick": self.max_events_per_tick,
        }

    def validate(self) -> "ServeConfig":
        if not self.name:
            raise ConfigError("serve 'name' must be a non-empty string")
        _validate_cluster(self.cluster)
        from repro.sched.policies import POLICIES

        if self.policy not in POLICIES:
            raise ConfigError(
                f"unknown policy {self.policy!r}; "
                f"registered: {', '.join(POLICIES.available())}"
            )
        if self.queue_limit < 1:
            raise ConfigError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.snapshot_every < 1:
            raise ConfigError(
                f"snapshot_every must be >= 1, got {self.snapshot_every}"
            )
        if not self.tick_seconds > 0:
            raise ConfigError(
                f"tick_seconds must be > 0, got {self.tick_seconds}"
            )
        if self.max_events_per_tick < 1:
            raise ConfigError(
                f"max_events_per_tick must be >= 1, got {self.max_events_per_tick}"
            )
        if self.faults is not None:
            _validate_faults(self.faults, seed=self.seed, target="sched")
        if self.brain is not None:
            _validate_brain(self.brain)
        return self


def apply_serve_overrides(
    config: ServeConfig, overrides: Sequence[str]
) -> ServeConfig:
    """Apply dotted overrides to a serve config and re-validate."""
    return ServeConfig.from_dict(_apply_overrides_data(config.to_dict(), overrides))


def _validate_exec(config: ExecConfig) -> None:
    """Shared exec-section validation for run and sched configs."""
    from repro.exec.backend import BACKENDS, START_METHODS

    if config.backend not in BACKENDS:
        raise ConfigError(
            f"unknown exec backend {config.backend!r}; "
            f"registered: {', '.join(BACKENDS.available())}"
        )
    if config.jobs < 0:
        raise ConfigError(f"exec jobs must be >= 0 (0 = all cores), got {config.jobs}")
    if config.start_method is not None and config.start_method not in START_METHODS:
        raise ConfigError(
            f"unknown exec start_method {config.start_method!r}; "
            f"accepted: {', '.join(START_METHODS)}"
        )


def _parse_override_value(raw: str) -> Any:
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw  # bare strings need no quoting: --set comm.scheme=dense


def _apply_overrides_data(data: dict, overrides: Sequence[str]) -> dict:
    """Apply dotted-path overrides to a config dict (shared helper).

    Numeric path segments index into lists (``--set jobs.0.priority=5``);
    ``elastic``, ``faults`` and ``brain`` materialise as empty sections
    on first touch so any config can opt into churn, fault drills or an
    autotuning brain from the command line.
    """
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        path, raw = item.split("=", 1)
        keys = path.strip().split(".")
        if not all(keys):
            raise ConfigError(f"override {item!r} has an empty key path")
        node: Any = data
        for i, key in enumerate(keys[:-1]):
            if (
                key in ("elastic", "faults", "brain")
                and node is data
                and data.get(key) is None
            ):
                data[key] = {}
            if isinstance(node, list):
                if not key.isdigit() or int(key) >= len(node):
                    raise ConfigError(
                        f"override {item!r}: {'.'.join(keys[: i + 1])!r} is not a "
                        f"valid list index (list has {len(node)} entries)"
                    )
                node = node[int(key)]
                continue
            if not isinstance(node, dict) or not isinstance(node.get(key), (dict, list)):
                raise ConfigError(
                    f"override {item!r}: {'.'.join(keys[: i + 1])!r} is not a section"
                )
            node = node[key]
        last = keys[-1]
        value = _parse_override_value(raw.strip())
        if isinstance(node, list):
            if not last.isdigit() or int(last) >= len(node):
                raise ConfigError(
                    f"override {item!r}: {last!r} is not a valid list index "
                    f"(list has {len(node)} entries)"
                )
            node[int(last)] = value
        else:
            node[last] = value
    return data


def apply_overrides(config: RunConfig, overrides: Sequence[str]) -> RunConfig:
    """Apply ``section.key=value`` overrides and re-validate.

    ``--set elastic.rate=0.02`` on a non-elastic config materialises a
    default :class:`ElasticConfig` first, so any run can be made elastic
    from the command line.
    """
    return RunConfig.from_dict(_apply_overrides_data(config.to_dict(), overrides))


def apply_sched_overrides(
    config: SchedConfig, overrides: Sequence[str]
) -> SchedConfig:
    """Apply dotted overrides to a sched config and re-validate.

    List entries address by index: ``--set jobs.0.priority=5``,
    ``--set policies.1=spread``.
    """
    return SchedConfig.from_dict(_apply_overrides_data(config.to_dict(), overrides))


__all__ = [
    "ConfigError",
    "ClusterConfig",
    "CommConfig",
    "TrainConfig",
    "ElasticConfig",
    "ELASTIC_SCHEDULES",
    "ExecConfig",
    "FaultConfig",
    "FaultsConfig",
    "BrainConfig",
    "RunConfig",
    "JobConfig",
    "SchedConfig",
    "ServeConfig",
    "apply_overrides",
    "apply_sched_overrides",
    "apply_serve_overrides",
]
