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

from repro.utils.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.api.config": [
            "ClusterConfig",
            "CommConfig",
            "ConfigError",
            "ElasticConfig",
            "ExecConfig",
            "RunConfig",
            "SchedConfig",
            "TrainConfig",
            "apply_overrides",
        ],
        "repro.api.facade": ["RunReport", "preflight", "run", "run_sched"],
        "repro.api.registry": [
            "CLUSTERS",
            "COMPRESSORS",
            "CONVERGENCE_ALGORITHMS",
            "MODELS",
            "SCHEMES",
            "Registry",
            "Workload",
            "available",
            "build_cluster",
            "build_compressor",
            "build_scheme",
            "build_workload",
            "register_cluster",
            "register_compressor",
            "register_model",
            "register_scheme",
        ],
    },
)
