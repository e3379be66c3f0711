"""Production-scale cluster traces for the multi-tenant scheduler.

Three pieces turn the hand-written-scenario scheduler into a
trace-driven replay engine (see ``docs/traces.md`` for the format and
an ops walkthrough):

* :mod:`~repro.sched.traces.records` / :mod:`~repro.sched.traces
  .ingest` — an Alibaba-PAI-2020-style job/task/instance record format
  (JSON-lines or CSV directory), parsed into
  :class:`~repro.sched.job.JobSpec` streams and re-serializable
  losslessly;
* :mod:`~repro.sched.traces.synth` — a seeded generator matching the
  published distribution shapes (heavy-tailed durations, bursty diurnal
  arrivals, skewed request mixes), so any scale is reproducible
  offline;
* :mod:`~repro.sched.traces.replay` — the config-to-specs loader shared
  by the facade, the CLI and the ``repro.exec`` pool workers, plus the
  distribution-style BENCH payload trace runs emit.

CLI: ``python -m repro trace gen`` / ``python -m repro trace validate``
/ ``python -m repro sched --trace <file>``.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.sched.traces.ingest": [
            "load_trace",
            "trace_stats",
            "trace_to_specs",
            "validate_trace",
            "write_trace",
            "write_trace_csv",
        ],
        "repro.sched.traces.records": ["Trace", "TraceError", "TraceInstance", "TraceJob", "TraceTask"],
        "repro.sched.traces.replay": [
            "DISTRIBUTION_COLUMNS",
            "distribution_rows",
            "job_specs_for",
            "payload_for_trace_reports",
        ],
        "repro.sched.traces.synth": ["SyntheticTraceConfig", "generate_trace"],
    },
)
