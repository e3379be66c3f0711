"""Always-on service mode: the crash-safe scheduler daemon.

``repro.serve`` turns the batch simulation stack into a long-running
service: a write-ahead journal (:mod:`~repro.serve.journal`) and
double-buffered snapshots (:mod:`~repro.serve.snapshot`) make the live
:class:`~repro.serve.engine.ServeEngine` durable, the
:class:`~repro.serve.daemon.ServeRuntime` enforces the
journal-before-apply / fsync-before-ack contract, and
:class:`~repro.serve.drill.RecoveryDrill` kills the daemon at seeded
injection points to prove recovery is byte-identical.  See
``docs/serve.md``.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.serve.client": ["SubmitError", "send_ops"],
        "repro.serve.daemon": [
            "ServeRuntime",
            "SimulatedCrash",
            "parse_kill_spec",
            "run_script",
            "serve_socket",
        ],
        "repro.serve.drill": [
            "DEFAULT_POINTS",
            "DrillOutcome",
            "RecoveryDrill",
            "ops_from_script",
            "ops_from_trace",
        ],
        "repro.serve.engine": ["QueueFullError", "ServeConfig", "ServeEngine"],
        "repro.serve.journal": [
            "Journal",
            "JournalError",
            "JournalScan",
            "canonical_json",
            "repair_journal",
            "scan_journal",
        ],
        "repro.serve.snapshot": ["SnapshotCorruptError", "SnapshotLoad", "SnapshotStore", "write_snapshot"],
    },
)
