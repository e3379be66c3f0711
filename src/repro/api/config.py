"""Declarative configuration — one JSON file fully specifies a run.

Every knob is declared exactly once, as a field of the frozen dataclass
the runtime itself reads.  The sections that belong to a subsystem live
in it, beside the registry they validate against where it has one
(``brain`` → :mod:`repro.brain.base`, ``exec`` → :mod:`repro.exec.config`,
``faults`` → :mod:`repro.faults.plan`, ``jobs[i]`` / ``payload`` →
:mod:`repro.sched.job`, the serve config → :mod:`repro.serve.engine`);
this module holds the sections of the training run itself, the
top-level :class:`RunConfig` / :class:`SchedConfig`, and the one codec
that serves all of them and re-exports every name.

The codec (:func:`load` / :func:`dump`) is driven by the dataclasses'
type hints — scalars, ``X | None``, nested sections, ``tuple[X, ...]``
lists — so every config round-trips losslessly through
``to_dict``/``from_dict`` and ``to_json``/``from_json``, unknown keys
are rejected with the list of accepted ones, and a wrong-typed or
non-finite value at any depth is a one-line :class:`ConfigError`.  Each
section's ``validate()`` then checks names against the registries and
values for range — a typo fails at load time, not an hour into a sweep.

:func:`apply_overrides` implements the CLI's ``--set section.key=value``
(values parsed as JSON, falling back to strings).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import pathlib
import types
import typing
from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, Sequence

from repro.api import registry
from repro.brain.base import BrainConfig
from repro.exec.config import ExecConfig
from repro.faults.plan import FaultConfig, FaultPlan, FaultsConfig
from repro.sched.job import JobSpec, TrainPayload
from repro.sched.policies import POLICIES
from repro.utils.eventlog import parse_json
from repro.utils.lazy import lazy_exports
from repro.utils.registry import ConfigError

# ---------------------------------------------------------------------------
# The codec: dict <-> config dataclass, driven by type hints
# ---------------------------------------------------------------------------

_SCALARS = (int, float, str, bool)


@functools.cache
def _schema(cls) -> dict[str, tuple[Any, bool]]:
    """``{field: (kind, nullable)}`` of a config dataclass.

    ``kind`` is a scalar type, a section dataclass, or ``[element kind]``
    for a ``tuple[X, ...]`` field.
    """
    hints = typing.get_type_hints(cls)
    schema = {}
    for f in fields(cls):
        hint = hints[f.name]
        args = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
        (kind,) = (arg for arg in args if arg is not type(None))
        if typing.get_origin(kind) is tuple:
            kind = [typing.get_args(kind)[0]]
        schema[f.name] = (kind, len(args) > 1)
    return schema


def load(cls, data: Any, label: str, *, top: bool = False):
    """Build config dataclass ``cls`` from a mapping, type-checked.

    ``label`` names the section in error messages.  Sub-sections of a
    top-level config are labelled by their bare key (``cluster``), deeper
    ones by their path (``faults.events[0]``); scalars always by path.
    Errors raised by ``cls`` itself (a ``__post_init__`` range check)
    come back as ``ConfigError("<label>: ...")``.
    """
    if not isinstance(data, dict):
        what = f"{label} config" if top else repr(label)
        raise ConfigError(f"{what} must be a mapping, got {type(data).__name__}")
    schema = _schema(cls)
    unknown = sorted(data.keys() - schema.keys())
    if unknown:
        raise ConfigError(
            f"unknown key(s) {', '.join(map(repr, unknown))} in {label!r}; "
            f"accepted keys: {', '.join(sorted(schema))}"
        )
    kwargs = {}
    for key, value in data.items():
        kind, nullable = schema[key]
        child = key if top and kind not in _SCALARS else f"{label}.{key}"
        kwargs[key] = _load_value(kind, nullable, value, child)
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"{label}: {exc}") from exc


def _load_value(kind, nullable: bool, value: Any, label: str):
    if value is None and nullable:
        return None
    if isinstance(kind, list):
        (element,) = kind
        if isinstance(value, str) and element is str:
            value = [value]  # one name needs no brackets: --set policies=spread
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{label!r} must be a list, got {type(value).__name__}")
        return tuple(
            _load_value(element, False, item, f"{label}[{i}]")
            for i, item in enumerate(value)
        )
    if kind not in _SCALARS:
        return value if isinstance(value, kind) else load(kind, value, label)
    # JSON has one number type: an int is a fine float, but a bool (an
    # int subclass) is never a number here.
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or (kind is not bool and isinstance(value, bool)):
        raise ConfigError(
            f"{label} must be {kind.__name__}{' or null' if nullable else ''}, "
            f"got {value!r}"
        )
    if kind is float:
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an integer literal beyond float range
            finite = False
        if not finite:
            raise ConfigError(f"{label} must be finite, got {value}")
    return value


def dump(value: Any) -> Any:
    """The JSON form of a config value: sections become dicts, tuples
    lists (so ``--set`` can index them); every field is emitted."""
    if dataclasses.is_dataclass(value):
        return {f.name: dump(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [dump(item) for item in value]
    return value


class JsonConfig:
    """dict / JSON / file round trip of the three top-level configs
    (each names its ``KIND`` and supplies ``validate``)."""

    KIND: ClassVar[str]

    @classmethod
    def from_dict(cls, data: dict, *, validate: bool = True):
        config = load(cls, data, cls.KIND, top=True)
        if validate:
            config.validate()
        return config

    @classmethod
    def from_json(cls, text: str, *, validate: bool = True):
        try:
            data = parse_json(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON {cls.KIND} config: {exc}") from exc
        return cls.from_dict(data, validate=validate)

    @classmethod
    def from_file(cls, path: str | pathlib.Path, *, validate: bool = True):
        path = pathlib.Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        return cls.from_json(path.read_text(), validate=validate)

    def to_dict(self) -> dict:
        """Every field, except top-level entries that are ``None`` — an
        absent optional section stays absent."""
        return {key: value for key, value in dump(self).items() if value is not None}

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"

    def _validate_shared(self, *, fault_target: str) -> None:
        """What all three configs carry: a name, a cluster, maybe faults."""
        if not self.name:
            raise ConfigError(f"{self.KIND} 'name' must be a non-empty string")
        self.cluster.validate()
        if self.faults is not None:
            # Resolving the plan checks kinds, parameters and plan file.
            FaultPlan.from_config(self.faults, seed=self.seed, target=fault_target)


# ---------------------------------------------------------------------------
# Sections of a training run
# ---------------------------------------------------------------------------


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

    def validate(self) -> None:
        registry.CLUSTERS.require(self.instance, "cluster instance")
        if self.num_nodes < 1 or self.gpus_per_node < 1:
            raise ConfigError("cluster num_nodes and gpus_per_node must be >= 1")


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

    def validate(self) -> None:
        registry.SCHEMES.require(self.scheme, "comm scheme")
        if self.compressor is not None:
            registry.COMPRESSORS.require(self.compressor)
        if not 0 < self.density <= 1:
            raise ConfigError(f"comm density must be in (0, 1], got {self.density}")


@dataclass(frozen=True)
class TrainConfig:
    """Workload and optimisation hyperparameters.

    Deliberately explicit: a config applies exactly the values written
    in it, with no per-model defaults (the Fig. 10 harness writes the
    transformer's hotter lr out in its own configs).
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

    def validate(self) -> None:
        registry.MODELS.require(self.model)
        if self.epochs < 1 or self.local_batch < 1 or self.num_samples < 1:
            raise ConfigError("train epochs, local_batch and num_samples must be >= 1")


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

    def validate(self, cluster: ClusterConfig) -> None:
        if self.schedule not in ELASTIC_SCHEDULES:
            raise ConfigError(
                f"unknown elastic schedule {self.schedule!r}; "
                f"accepted: {', '.join(ELASTIC_SCHEDULES)}"
            )
        if self.iterations < 1:
            raise ConfigError("elastic iterations must be >= 1")
        if self.rate < 0:
            raise ConfigError("elastic rate must be >= 0")
        if not 1 <= self.min_nodes <= cluster.num_nodes:
            raise ConfigError("elastic min_nodes must be in [1, cluster.num_nodes]")


#: Schedules ElasticConfig understands (kept next to the dataclass, not
#: in the registry: they are modes of one subsystem, not plugins).
ELASTIC_SCHEDULES = ("poisson", "none")


# ---------------------------------------------------------------------------
# Top-level configs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig(JsonConfig):
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

    @classmethod
    def from_dict(cls, data: dict, *, validate: bool = True):
        if isinstance(data, dict) and "exec" in data:
            raise ConfigError(
                "run configs have no 'exec' section any more: training steps "
                "run inline; the process pool fans out sched policies and "
                "experiments (sched 'exec' / --jobs)"
            )
        return super().from_dict(data, validate=validate)

    def validate(self) -> "RunConfig":
        """Check names against the registries and values for sanity."""
        if self.faults is not None and self.elastic is None:
            raise ConfigError(
                "faults require an 'elastic' section: fault drills perturb "
                "the elastic trainer (add \"elastic\": {} or "
                "--set elastic.schedule=none)"
            )
        self._validate_shared(fault_target="run")
        self.comm.validate()
        self.train.validate()
        if self.elastic is not None:
            self.elastic.validate(self.cluster)
        return self


@dataclass(frozen=True)
class SchedConfig(JsonConfig):
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
    #: ``network-aware`` / ``fault-aware``.
    policies: tuple[str, ...] = ("bin-pack",)
    #: The job queue (>= 1 job; names unique), each entry a
    #: :class:`~repro.sched.job.JobSpec`.  Left out, it is one default
    #: job — or, with ``trace`` set, nothing: the two are mutually
    #: exclusive.
    jobs: tuple[JobSpec, ...] | None = None
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
    #: How many worker processes the per-policy simulations fan across
    #: (results identical to the inline run at every width).
    exec: ExecConfig = field(default_factory=ExecConfig)

    def __post_init__(self) -> None:
        if self.trace is None and self.jobs is None:
            object.__setattr__(self, "jobs", (JobSpec(),))
        elif self.trace is not None and self.jobs is not None:
            raise ConfigError(
                "'jobs' and 'trace' are mutually exclusive: a trace IS the "
                "job queue"
            )

    def validate(self) -> "SchedConfig":
        self._validate_shared(fault_target="sched")
        if not self.policies:
            raise ConfigError("sched 'policies' must name at least one policy")
        for policy in self.policies:
            POLICIES.require(policy)
        canonical = [POLICIES.canonical(p) for p in self.policies]
        duplicates = sorted({p for p in canonical if canonical.count(p) > 1})
        if duplicates:
            raise ConfigError(
                f"policies resolve to duplicate entries: {', '.join(duplicates)}"
            )
        if self.brain is not None:
            self.brain.validate()
        self.exec.validate()
        if self.trace is not None:
            # Trace contents (existence, referential integrity, workload
            # names) are validated when the trace is loaded at run time.
            if not self.trace:
                raise ConfigError("'trace' must be a non-empty path string")
            return self
        if not self.jobs:
            raise ConfigError("sched 'jobs' must contain at least one job")
        names = [job.name for job in self.jobs]
        if len(set(names)) != len(names):
            raise ConfigError(f"job names must be unique, got {sorted(names)}")
        try:
            for job in self.jobs:
                job.check_fits(self.cluster.num_nodes, self.cluster.gpus_per_node)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return self


# ---------------------------------------------------------------------------
# --set overrides
# ---------------------------------------------------------------------------


def _parse_override_value(raw: str) -> Any:
    try:
        return parse_json(raw)
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


def apply_overrides(config, overrides: Sequence[str]):
    """Apply ``section.key=value`` overrides to any top-level config and
    re-validate.

    ``--set elastic.rate=0.02`` on a non-elastic config materialises a
    default :class:`ElasticConfig` first, so any run can be made elastic
    from the command line; list entries address by index
    (``--set jobs.0.priority=5``, ``--set policies.1=spread``).
    """
    return type(config).from_dict(_apply_overrides_data(config.to_dict(), overrides))


# ServeConfig is built from the classes above, so its module imports
# this one; the re-export resolves on first use.
__getattr__, _ = lazy_exports(__name__, {"repro.serve.engine": ["ServeConfig"]})


__all__ = [
    "ConfigError",
    "load",
    "dump",
    "JsonConfig",
    "ClusterConfig",
    "CommConfig",
    "TrainConfig",
    "ElasticConfig",
    "ELASTIC_SCHEDULES",
    "ExecConfig",
    "FaultConfig",
    "FaultsConfig",
    "BrainConfig",
    "TrainPayload",
    "JobSpec",
    "RunConfig",
    "SchedConfig",
    "ServeConfig",
    "apply_overrides",
]
