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

from repro.serve.client import SubmitError, send_ops
from repro.serve.daemon import (
    ServeRuntime,
    SimulatedCrash,
    parse_kill_spec,
    run_script,
    serve_socket,
)
from repro.serve.drill import (
    DEFAULT_POINTS,
    DrillOutcome,
    RecoveryDrill,
    ops_from_script,
    ops_from_trace,
)
from repro.serve.engine import QueueFullError, ServeConfig, ServeEngine
from repro.serve.journal import (
    Journal,
    JournalError,
    JournalScan,
    canonical_json,
    repair_journal,
    scan_journal,
)
from repro.serve.snapshot import (
    SnapshotCorruptError,
    SnapshotLoad,
    SnapshotStore,
    write_snapshot,
)

__all__ = [
    "DEFAULT_POINTS",
    "DrillOutcome",
    "Journal",
    "JournalError",
    "JournalScan",
    "QueueFullError",
    "RecoveryDrill",
    "ServeConfig",
    "ServeEngine",
    "ServeRuntime",
    "SimulatedCrash",
    "SnapshotCorruptError",
    "SnapshotLoad",
    "SnapshotStore",
    "SubmitError",
    "canonical_json",
    "ops_from_script",
    "ops_from_trace",
    "parse_kill_spec",
    "repair_journal",
    "run_script",
    "scan_journal",
    "send_ops",
    "serve_socket",
    "write_snapshot",
]
