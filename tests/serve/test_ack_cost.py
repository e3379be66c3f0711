"""What one ack costs, counted rather than timed.

The daemon's per-op work must be bounded by what the op touches, not by
how much history the service has: one journal ``fsync`` per acked op
(the input frame; the audit rides the next one), the O(history)
``state_digest()`` only per snapshot and on recovery, and a witness link
that serialises only the touched records.  Counts are deterministic, so
this gates the property where a wall-clock ratio could only suggest it.
"""

import os

import pytest

from repro.api.config import ServeConfig
from repro.serve import engine as engine_module
from repro.serve.daemon import ServeRuntime
from repro.serve.engine import ServeEngine
from repro.serve.journal import scan_journal

SNAPSHOT_EVERY = 5

CONFIG = ServeConfig.from_dict(
    {
        "name": "cost",
        "seed": 7,
        "cluster": {"instance": "tencent", "num_nodes": 4, "gpus_per_node": 2},
        "policy": "bin-pack",
        "snapshot_every": SNAPSHOT_EVERY,
    }
)


def make_ops(jobs: int) -> list[dict]:
    """Submit a job, tick past it, repeat: every job is history by the end."""
    ops = []
    for index in range(jobs):
        ops.append({"op": "submit", "job": {
            "name": f"j{index}", "iterations": 40, "arrival_seconds": 100.0 * index,
        }})
        ops.append({"op": "tick", "until": 100.0 * (index + 1)})
    for op_id, op in enumerate(ops, start=1):
        op["id"] = op_id
    return ops


@pytest.fixture
def counts(monkeypatch):
    """Call counters for fsync (by file descriptor) and the full digest."""
    seen = {"fsync": [], "state_digest": 0, "record_state": 0}
    real_fsync = os.fsync
    real_digest = ServeEngine.state_digest
    real_record_state = engine_module._record_state

    def fsync(fd):
        seen["fsync"].append(fd)
        real_fsync(fd)

    def state_digest(self):
        seen["state_digest"] += 1
        return real_digest(self)

    def record_state(record):
        seen["record_state"] += 1
        return real_record_state(record)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(ServeEngine, "state_digest", state_digest)
    monkeypatch.setattr(engine_module, "_record_state", record_state)
    return seen


def test_one_journal_fsync_per_acked_op(tmp_path, counts):
    runtime = ServeRuntime(CONFIG, tmp_path)
    journal_fd = runtime.journal._file.fileno()
    counts["fsync"].clear()  # the header's fsync is paid once, at creation
    ops = make_ops(6)
    for op in ops:
        assert runtime.handle(op)["ok"]
    snapshots = len(ops) // SNAPSHOT_EVERY
    assert runtime.status()["snapshots"] == snapshots
    assert counts["fsync"].count(journal_fd) == len(ops)
    # Everything else that synced was a snapshot slot write.
    assert len(counts["fsync"]) == len(ops) + snapshots
    # Duplicates and read-only ops touch neither the journal nor the disk.
    assert runtime.handle(ops[0])["duplicate"]
    assert runtime.handle({"op": "payload"})["ok"]
    assert len(counts["fsync"]) == len(ops) + snapshots
    runtime.close()
    # Both frames of every op are on disk all the same.
    kinds = [r["kind"] for r in scan_journal(tmp_path / "journal.bin").records]
    assert kinds == ["input", "audit"] * len(ops)


def test_full_state_digest_only_at_snapshot_cadence(tmp_path, counts):
    runtime = ServeRuntime(CONFIG, tmp_path)
    ops = make_ops(6)
    for index, op in enumerate(ops, start=1):
        before = counts["state_digest"]
        runtime.handle(op)
        # One per snapshot (the state's own restore check, which the
        # slot meta reuses), none on any other ack.
        expected = 1 if index % SNAPSHOT_EVERY == 0 else 0
        assert counts["state_digest"] - before == expected, f"op {index}"
    runtime.close()

    counts["state_digest"] = 0
    again = ServeRuntime(CONFIG, tmp_path)
    assert again.recovery["replayed"] == len(ops) % SNAPSHOT_EVERY
    # Recovery: once to verify the restored snapshot, once for the
    # ``recovered`` note — not once per replayed op.
    assert counts["state_digest"] == 2
    again.close()


def test_witness_link_serialises_only_touched_records(tmp_path, counts):
    runtime = ServeRuntime(CONFIG, tmp_path)
    for op in make_ops(20):
        runtime.handle(op)
    assert len(runtime.engine.done) == len(runtime.engine.records) == 20
    assert runtime.engine.core.running == []
    tail = [
        {"op": "submit", "id": 41, "job": {"name": "late", "iterations": 40}},
        {"op": "tick", "id": 42},
        {"op": "tick", "id": 43},  # idle: nothing running, nothing touched
    ]
    touched = []
    for op in tail:
        before = counts["record_state"]
        assert runtime.handle(op)["ok"]
        touched.append(counts["record_state"] - before)
    # 20 finished jobs of history, and each link still serialises one
    # record (the job submitted / run to completion) or none at all.
    assert touched == [1, 1, 0]
    runtime.close()


def test_a_link_without_an_event_loop_step_hashes_only_what_it_creates(
    tmp_path, counts
):
    # Off the snapshot cadence: only the explicit snapshot op takes one.
    config = ServeConfig.from_dict({**CONFIG.to_dict(), "snapshot_every": 100})
    runtime = ServeRuntime(config, tmp_path)
    for op_id, name in enumerate("abc", start=1):
        job = {"name": name, "iterations": 10_000, "max_nodes": 1}
        assert runtime.handle({"op": "submit", "id": op_id, "job": job})["ok"]
    assert runtime.handle({"op": "tick", "id": 4, "until": 10.0})["ok"]
    assert len(runtime.engine.core.running) == 3
    tail = [
        {"op": "submit", "id": 5, "job": {"name": "d", "iterations": 40}},
        # Rejected (the name is taken): it creates no record.
        {"op": "submit", "id": 6, "job": {"name": "d", "iterations": 40}},
        {"op": "snapshot", "id": 7},
        {"op": "stop", "id": 8},
    ]
    touched = []
    for op in tail:
        before = counts["record_state"]
        runtime.handle(op)
        touched.append(counts["record_state"] - before)
    # No op here ran a step, so none re-hashes the three running jobs
    # (only the snapshot's full state_digest reads every record).
    assert touched == [1, 0, len(runtime.engine.records), 0]
    runtime.close()
