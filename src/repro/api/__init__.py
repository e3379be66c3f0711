"""repro.api — the unified public facade.

Three layers, composable or usable alone:

* **registries** (:mod:`repro.api.registry`) — decorator-based
  ``register_scheme`` / ``register_compressor`` / ``register_model`` /
  ``register_cluster`` with ``available()`` discovery; the single source
  of component names;
* **RunConfig** (:mod:`repro.api.config`) — a nested, JSON-round-tripping
  dataclass that fully specifies a run (cluster, comm, train, optional
  elastic, seed) and validates against the registries;
* **run()** (:mod:`repro.api.facade`) — executes a config through the
  legacy-identical wiring and returns a :class:`RunReport` with a
  ``BENCH_*.json``-compatible payload.

The CLI (``python -m repro``) is a thin shell over these::

    from repro.api import RunConfig, run

    report = run(RunConfig.from_file("examples/configs/smoke.json"))
    print(report.format())
"""

from repro.api.config import (
    ClusterConfig,
    CommConfig,
    ConfigError,
    ElasticConfig,
    ExecConfig,
    RunConfig,
    SchedConfig,
    TrainConfig,
    apply_overrides,
)
from repro.api.facade import RunReport, preflight, run, run_sched
from repro.api.registry import (
    CLUSTERS,
    COMPRESSORS,
    CONVERGENCE_ALGORITHMS,
    MODELS,
    SCHEMES,
    Registry,
    Workload,
    available,
    build_cluster,
    build_compressor,
    build_scheme,
    build_workload,
    register_cluster,
    register_compressor,
    register_model,
    register_scheme,
)

__all__ = [
    # config
    "RunConfig",
    "ClusterConfig",
    "CommConfig",
    "TrainConfig",
    "ElasticConfig",
    "ExecConfig",
    "SchedConfig",
    "ConfigError",
    "apply_overrides",
    # facade
    "run",
    "run_sched",
    "preflight",
    "RunReport",
    # registry
    "Registry",
    "Workload",
    "SCHEMES",
    "COMPRESSORS",
    "MODELS",
    "CLUSTERS",
    "CONVERGENCE_ALGORITHMS",
    "register_scheme",
    "register_compressor",
    "register_model",
    "register_cluster",
    "available",
    "build_scheme",
    "build_compressor",
    "build_workload",
    "build_cluster",
]
