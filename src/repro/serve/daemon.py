"""The ``repro serve`` daemon runtime: durability around the engine.

:class:`ServeRuntime` wraps one :class:`~repro.serve.engine.ServeEngine`
with the crash-safety contract:

1. **WAL before apply** — every mutating op is appended to the
   CRC-framed journal (fsynced) *before* the engine applies it, and only
   then acknowledged.  An acknowledged op therefore survives any kill.
   That input frame's ``fsync`` is the only one an ack pays.
2. **Audit after apply** — each applied op's acknowledgement and the
   engine's chained ``witness`` (a hash link over the op, its ack and
   the state it could have touched — O(cluster), not O(history)) are
   appended as an *audit* record.  Audits are never needed to recover
   (the inputs alone rebuild the state), so they are flushed but not
   fsynced and ride the next input frame's ``fsync``; they are
   *verified* during replay: a mismatch means the engine stopped being
   deterministic, which is a real bug and fails recovery loudly rather
   than silently diverging.
3. **Snapshot every N ops** — double-buffered slots
   (:class:`~repro.serve.snapshot.SnapshotStore`) bound replay length;
   a corrupt newest slot falls back to the other slot, then to
   journal-only replay from genesis.  The O(history) full
   ``state_digest()`` is taken here (and verified on restore), not per
   op.

Recovery on construction is: repair the torn journal tail → load the
newest good snapshot → replay input records past its ``applied_seq``,
checking audit acks and witnesses → append a ``recovered`` note.  The
whole procedure is exercised continuously by the kill-anywhere drills
(:mod:`repro.serve.drill`), which crash the runtime at seeded injection
points — mid-tick, mid-snapshot, mid-journal-append — via ``kill_plan``.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import socket as socketlib
import time
from typing import Iterable

from repro.serve.engine import ServeEngine
from repro.serve.journal import Journal, canonical_json, repair_journal
from repro.serve.snapshot import SnapshotStore
from repro.utils.eventlog import parse_json

#: Op kinds that mutate state and therefore get journaled.
MUTATING_OPS = ("submit", "tick", "drain", "snapshot", "stop")
#: Read-only op kinds, answered from live state without journaling.
READONLY_OPS = ("status", "payload")

#: Injection-point kinds accepted by ``--kill-at`` / kill plans.
KILL_POINTS = ("tick", "snapshot", "append")


class SimulatedCrash(Exception):
    """Raised (kill_mode="raise") when a kill-plan injection point fires.

    In-process drills catch this where a real crash would have killed
    the interpreter; ``kill_mode="sigkill"`` sends an actual ``SIGKILL``
    instead, for subprocess drills (the CI ``serve-smoke`` job).
    """


def parse_kill_spec(spec: str) -> tuple[str, int]:
    """``"tick:2"`` -> ``("tick", 2)``; raises ``ValueError`` on junk."""
    point, _, count = spec.partition(":")
    if point not in KILL_POINTS or not count.isdigit() or int(count) < 1:
        raise ValueError(
            f"bad kill point {spec!r}; expected <kind>:<n> with kind one of "
            f"{', '.join(KILL_POINTS)} and n >= 1"
        )
    return point, int(count)


class ServeRuntime:
    """One daemon process: engine + journal + snapshots + recovery."""

    def __init__(
        self,
        config,
        state_dir: str | pathlib.Path,
        *,
        kill_plan: str | None = None,
        kill_mode: str = "raise",
    ) -> None:
        self.config = config
        self.state_dir = pathlib.Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.state_dir / "journal.bin"
        self.store = SnapshotStore(self.state_dir)
        self._kill = parse_kill_spec(kill_plan) if kill_plan else None
        if kill_mode not in ("raise", "sigkill"):
            raise ValueError(f"kill_mode must be 'raise' or 'sigkill', got {kill_mode!r}")
        self.kill_mode = kill_mode
        # Occurrence counters the kill plan indexes into.
        self._input_no = 0
        self._tick_no = 0
        self._snapshot_no = 0
        self._ops_since_snapshot = 0
        self.stopped = False
        self.drain_requested = False
        self.recovery = {
            "recovered": False,
            "snapshot_slot": None,
            "snapshot_seq": 0,
            "corrupt_snapshots": 0,
            "replayed": 0,
            "torn_bytes_dropped": 0,
            "recovery_s": 0.0,
        }
        t0 = time.perf_counter()
        self._applied_seq = 0
        self._next_seq = 1
        if self.journal_path.exists():
            self._recover()
        else:
            self.engine = ServeEngine(config)
        self.journal = Journal(self.journal_path)
        self.recovery["recovery_s"] = time.perf_counter() - t0
        if self.recovery["recovered"]:
            self._note(
                event="recovered",
                replayed=self.recovery["replayed"],
                torn_bytes_dropped=self.recovery["torn_bytes_dropped"],
                snapshot_slot=self.recovery["snapshot_slot"],
                corrupt_snapshots=self.recovery["corrupt_snapshots"],
                digest=self.engine.state_digest(),
            )

    # -- recovery -------------------------------------------------------------
    def _recover(self) -> None:
        scan = repair_journal(self.journal_path)
        self.recovery["torn_bytes_dropped"] = scan.torn_bytes
        loaded = self.store.load()
        if loaded is not None:
            self.engine = ServeEngine.from_snapshot_state(self.config, loaded.state)
            self._applied_seq = int(loaded.meta.get("applied_seq", 0))
            self.recovery["snapshot_slot"] = loaded.slot
            self.recovery["snapshot_seq"] = self._applied_seq
            self.recovery["corrupt_snapshots"] = loaded.corrupt_slots
        else:
            self.engine = ServeEngine(self.config)
            # Slot files that exist but would not load — torn, or written
            # by an older snapshot format — all count as fallbacks.
            self.recovery["corrupt_snapshots"] = sum(
                path.exists() for path in self.store.slots
            )
        audits = {
            r.get("of"): r for r in scan.records if r.get("kind") == "audit"
        }
        for record in scan.records:
            if record.get("kind") != "input":
                continue
            seq = record.get("seq", 0)
            if seq <= self._applied_seq:
                continue
            ack = self.engine.apply_op(record["op"], seq)
            self._applied_seq = seq
            self.recovery["replayed"] += 1
            audit = audits.get(seq)
            if audit is None:
                continue  # crashed before the audit append reached the disk
            if audit.get("ack") != ack:
                raise RuntimeError(
                    f"journal replay diverged at seq {seq}: ack {ack} != "
                    f"journaled {audit.get('ack')}"
                )
            # Audits from builds that journaled a full-state "digest"
            # instead carry no witness and are ack-checked only.
            witness = audit.get("witness")
            if witness is not None and witness != self.engine.witness:
                raise RuntimeError(
                    f"journal replay diverged at seq {seq}: witness "
                    f"{self.engine.witness} != journaled {witness} — the "
                    "engine is no longer deterministic in its inputs"
                )
        self._next_seq = scan.last_seq + 1
        self.recovery["recovered"] = bool(scan.records) or loaded is not None

    # -- the one front door ---------------------------------------------------
    def handle(self, op: dict) -> dict:
        """Journal, apply, audit, snapshot; returns the acknowledgement.

        User-level problems (malformed op, unknown kind, rejected
        submission) come back as ``{"ok": False, "error": ...}`` acks;
        malformed *framing* (op not an object, bad id type) raises
        ``ValueError`` for the caller to turn into a transport error.
        """
        if not isinstance(op, dict):
            raise ValueError(
                f"each op must be a JSON object, got {type(op).__name__}"
            )
        kind = op.get("op")
        if kind in READONLY_OPS:
            if kind == "status":
                return {"ok": True, "op": "status", **self.status()}
            return {
                "ok": True,
                "op": "payload",
                "payload": self.engine.payload(
                    bench=f"serve_{self.config.name}"
                ),
            }
        if not isinstance(kind, str) or kind not in MUTATING_OPS:
            raise ValueError(
                f"unknown op {kind!r}; accepted: "
                f"{', '.join(MUTATING_OPS + READONLY_OPS)}"
            )
        op_id = op.get("id")
        if op_id is None:
            op = {**op, "id": self.engine.last_op_id + 1}
        elif not isinstance(op_id, int) or isinstance(op_id, bool) or op_id < 1:
            raise ValueError(f"op 'id' must be a positive integer, got {op_id!r}")
        elif op_id <= self.engine.last_op_id:
            # Exactly-once apply: this id was already consumed (the
            # at-least-once client resent after losing our ack).
            return {"ok": True, "id": op_id, "duplicate": True}

        seq = self._next_seq
        record = {"kind": "input", "seq": seq, "op": op}
        self._input_no += 1
        if self._kill == ("append", self._input_no):
            # Die mid-append: persist a deliberately torn frame — the op
            # is NOT acknowledged, so losing it loses nothing promised.
            self.journal.append_torn(record)
            self._crash(f"append:{self._input_no}")
        self.journal.append(record)
        self._next_seq += 1
        if kind in ("tick", "drain"):
            self._tick_no += 1
            if self._kill == ("tick", self._tick_no):
                # Die mid-tick: journaled but not applied, not acked.
                self._crash(f"tick:{self._tick_no}")
        ack = self.engine.apply_op(op, seq)
        self._applied_seq = seq
        self._audit(seq, ack)
        self._ops_since_snapshot += 1
        if (kind == "snapshot" and ack.get("ok")) or (
            self._ops_since_snapshot >= self.config.snapshot_every
        ):
            self.take_snapshot()
        if kind == "stop" and ack.get("ok"):
            self.stopped = True
        return ack

    def _audit(self, of_seq: int, ack: dict) -> None:
        # Not needed to recover, so not worth an fsync: flushed now, made
        # durable by the next input frame's fsync.
        self.journal.append(
            {
                "kind": "audit",
                "seq": self._next_seq,
                "of": of_seq,
                "ack": ack,
                "witness": self.engine.witness,
            },
            durable=False,
        )
        self._next_seq += 1

    def _note(self, **fields) -> None:
        self.journal.append({"kind": "note", "seq": self._next_seq, **fields})
        self._next_seq += 1

    def take_snapshot(self) -> pathlib.Path:
        """Persist engine state into the stale slot; resets the cadence."""
        self._snapshot_no += 1
        tear_after = None
        torn = self._kill == ("snapshot", self._snapshot_no)
        if torn:
            # Die mid-snapshot-write: persist roughly half the blob into
            # the (stale) target slot — the newest good slot survives.
            tear_after = 0.5
        # The state carries its own digest (checked on restore); the
        # slot meta reuses it rather than hashing the whole state twice.
        state = self.engine.snapshot_state()
        meta = {
            "applied_seq": self._applied_seq,
            "last_op_id": self.engine.last_op_id,
            "now": self.engine.now,
            "digest": state["digest"],
            "name": self.config.name,
        }
        path = self.store.save(state, meta, tear_after=tear_after)
        if torn:
            self._crash(f"snapshot:{self._snapshot_no}")
        self._ops_since_snapshot = 0
        return path

    def _crash(self, point: str):
        if self.kill_mode == "sigkill":  # pragma: no cover - subprocess drills
            os.kill(os.getpid(), signal.SIGKILL)
        raise SimulatedCrash(point)

    # -- lifecycle ------------------------------------------------------------
    def status(self) -> dict:
        return {
            "name": self.config.name,
            "state_dir": str(self.state_dir),
            "applied_seq": self._applied_seq,
            "snapshots": self._snapshot_no,
            "stopped": self.stopped,
            "recovery": dict(self.recovery),
            **self.engine.stats(),
        }

    def finalize(self, *, bench: str | None = None) -> dict:
        """The deterministic BENCH payload + a final durable snapshot."""
        payload = self.engine.payload(bench=bench or f"serve_{self.config.name}")
        self.take_snapshot()
        return payload

    def request_drain(self, *args) -> None:
        """SIGTERM handler: finish the in-flight op, snapshot, exit 0."""
        self.drain_requested = True

    def close(self) -> None:
        self.journal.close()


def run_script(runtime: ServeRuntime, lines: Iterable[str]) -> list[dict]:
    """Drive the runtime from JSON-lines ops (a file or stdin).

    Scripted mode is strict: the first failed op aborts with
    ``ValueError`` (the CLI's one-line ``error:`` exit 2), because a
    script that half-applied is a debugging session, not a service.
    """
    acks: list[dict] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            op = parse_json(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"ops line {lineno}: invalid JSON: {exc}") from exc
        try:
            ack = runtime.handle(op)
        except ValueError as exc:
            raise ValueError(f"ops line {lineno}: {exc}") from exc
        acks.append(ack)
        if not ack.get("ok"):
            raise ValueError(f"ops line {lineno}: {ack.get('error')}")
        if runtime.stopped or runtime.drain_requested:
            break
    return acks


def serve_socket(runtime: ServeRuntime, socket_path: str | pathlib.Path) -> int:
    """Accept JSON-lines ops over a unix socket until stop/SIGTERM.

    One line in, one canonical-JSON ack out.  Unlike scripted mode a bad
    op only fails its own ack — a live service stays up when one client
    sends garbage.  Returns the number of connections served.
    """
    socket_path = pathlib.Path(socket_path)
    if socket_path.exists():
        socket_path.unlink()
    server = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
    connections = 0
    try:
        server.bind(str(socket_path))
        server.listen(8)
        server.settimeout(0.2)  # poll stop/drain flags between accepts
        while not runtime.stopped and not runtime.drain_requested:
            try:
                conn, _ = server.accept()
            except socketlib.timeout:
                continue
            connections += 1
            with conn, conn.makefile("rwb") as stream:
                for raw in stream:
                    try:
                        op = parse_json(raw.decode("utf-8"))
                        ack = runtime.handle(op)
                    except (ValueError, KeyError) as exc:
                        ack = {"ok": False, "error": str(exc)}
                    stream.write((canonical_json(ack) + "\n").encode("utf-8"))
                    stream.flush()
                    if runtime.stopped or runtime.drain_requested:
                        break
    finally:
        server.close()
        if socket_path.exists():
            socket_path.unlink()
    return connections


__all__ = [
    "KILL_POINTS",
    "MUTATING_OPS",
    "READONLY_OPS",
    "ServeRuntime",
    "SimulatedCrash",
    "parse_kill_spec",
    "run_script",
    "serve_socket",
]
