"""Property: the serve durability pair — WAL replay and crash recovery.

Two invariants carry the whole ``repro serve`` crash-safety story, so
both get hypothesis-driven random streams rather than hand-picked
examples:

* **Replay determinism** — for any sequence of admissible ops, feeding
  the journal's input records into a fresh engine reproduces the state
  digest byte-for-byte (the daemon replays its own journal on every
  restart, so this is the recovery correctness contract).
* **No acknowledged loss** — crash the runtime after any prefix of any
  op stream, restart against the same state directory, resend from the
  first unacknowledged op (the at-least-once client), and every
  acknowledged submission is still present with every duplicate
  deduplicated (exactly-once apply via op ids).  Audit frames are not
  fsynced, so the same holds when the crash also costs the newest audit
  — dropped whole or torn at any byte.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")  # optional dep; CI installs it in brain-smoke

import os
import shutil
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.config import ServeConfig
from repro.serve.daemon import ServeRuntime
from repro.serve.engine import ServeEngine
from repro.serve.journal import encode_frame, scan_journal

CONFIG = ServeConfig.from_dict(
    {
        "name": "prop",
        "seed": 3,
        "cluster": {"instance": "tencent", "num_nodes": 2, "gpus_per_node": 2},
        "policy": "bin-pack",
        "queue_limit": 64,
        "snapshot_every": 3,
    }
)

# Small, always-admissible job shapes: unique names are assigned later.
job_bodies = st.fixed_dictionaries(
    {
        "iterations": st.integers(10, 60),
        "arrival_seconds": st.floats(0.0, 50.0, allow_nan=False),
        "priority": st.integers(0, 2),
    }
)

# An op stream: submits and monotonic-enough ticks (the engine clamps
# arrivals, and `until` in the past is rejected — so draw offsets).
op_kinds = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), job_bodies),
        st.tuples(st.just("tick"), st.floats(1.0, 40.0, allow_nan=False)),
    ),
    min_size=1,
    max_size=12,
)


def build_ops(kinds) -> list[dict]:
    ops, clock, jobs = [], 0.0, 0
    for kind, value in kinds:
        if kind == "submit":
            jobs += 1
            ops.append({"op": "submit", "job": {"name": f"j{jobs}", **value}})
        else:
            clock += value
            ops.append({"op": "tick", "until": round(clock, 3)})
    ops.append({"op": "drain"})
    for index, op in enumerate(ops):
        op["id"] = index + 1
    return ops


class TestReplayDeterminism:
    @given(kinds=op_kinds)
    @settings(max_examples=25, deadline=None)
    def test_journal_replay_reproduces_the_digest(self, kinds):
        ops = build_ops(kinds)
        state_dir = tempfile.mkdtemp(prefix="prop-journal-")
        try:
            runtime = ServeRuntime(CONFIG, state_dir)
            for op in ops:
                ack = runtime.handle(op)
                assert ack.get("ok"), ack
            digest = runtime.engine.state_digest()
            payload = runtime.engine.payload()
            runtime.close()

            # Journal-only replay into a fresh engine (ignore snapshots:
            # the journal alone must suffice).
            scan = scan_journal(f"{state_dir}/journal.bin")
            assert not scan.torn
            clean = ServeEngine(CONFIG)
            for record in scan.records:
                if record.get("kind") == "input":
                    clean.apply_op(record["op"])
            assert clean.state_digest() == digest
            assert clean.payload() == payload
        finally:
            shutil.rmtree(state_dir, ignore_errors=True)


class TestNoAcknowledgedLoss:
    @given(kinds=op_kinds, data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_crash_after_any_prefix_loses_no_acked_submission(self, kinds, data):
        ops = build_ops(kinds)
        cut = data.draw(st.integers(0, len(ops) - 1), label="crash after op #")
        state_dir = tempfile.mkdtemp(prefix="prop-crash-")
        try:
            runtime = ServeRuntime(CONFIG, state_dir)
            acked_submits = []
            for op in ops[:cut]:
                ack = runtime.handle(op)
                assert ack.get("ok"), ack
                if op["op"] == "submit":
                    acked_submits.append(op["job"]["name"])
            # Crash: no clean shutdown, no final snapshot — the journal
            # (fsynced before each ack) is all that is promised.
            runtime.close()

            recovered = ServeRuntime(CONFIG, state_dir)
            for name in acked_submits:
                assert name in recovered.engine.records, (
                    f"acked submission {name!r} lost after crash at op {cut}"
                )
            # At-least-once resend from the first unacked op: applied
            # ops dedup, the rest apply — the stream always completes.
            duplicates = 0
            for op in ops[cut:]:
                ack = recovered.handle(op)
                assert ack.get("ok"), ack
                duplicates += bool(ack.get("duplicate"))
            assert duplicates == 0  # everything past `cut` was never journaled
            assert len(recovered.engine.done) == len(
                [op for op in ops if op["op"] == "submit"]
            )
            recovered.close()
        finally:
            shutil.rmtree(state_dir, ignore_errors=True)

    @given(kinds=op_kinds, data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_losing_the_unsynced_tail_audit_loses_nothing_acked(self, kinds, data):
        ops = build_ops(kinds)
        cut = data.draw(st.integers(1, len(ops)), label="crash after op #")
        state_dir = tempfile.mkdtemp(prefix="prop-audit-")
        try:
            runtime = ServeRuntime(CONFIG, state_dir)
            for op in ops[:cut]:
                assert runtime.handle(op).get("ok")
            witness = runtime.engine.witness
            digest = runtime.engine.state_digest()
            runtime.close()

            # Only the input frame of the last acked op was fsynced; its
            # audit was merely flushed.  Keep any strict prefix of that
            # audit frame: 0 bytes = lost whole, more = torn inside.
            path = f"{state_dir}/journal.bin"
            audit = scan_journal(path).records[-1]
            assert audit["kind"] == "audit" and audit["of"] == audit["seq"] - 1
            frame = len(encode_frame(audit))
            kept = data.draw(st.integers(0, frame - 1), label="audit bytes kept")
            os.truncate(path, os.path.getsize(path) - frame + kept)

            recovered = ServeRuntime(CONFIG, state_dir)
            assert recovered.recovery["torn_bytes_dropped"] == kept
            # The op was acked, so it is still applied — and the chain
            # is where the lost audit said it was.
            assert recovered.engine.last_op_id == ops[cut - 1]["id"]
            assert recovered.engine.witness == witness
            assert recovered.engine.state_digest() == digest
            for op in ops[:cut]:  # the at-least-once client resends
                assert recovered.handle(op).get("duplicate")
            for op in ops[cut:]:
                ack = recovered.handle(op)
                assert ack.get("ok") and not ack.get("duplicate"), ack
            recovered.close()
        finally:
            shutil.rmtree(state_dir, ignore_errors=True)
