"""Kill-anywhere recovery drills for the ``repro serve`` daemon.

A :class:`RecoveryDrill` is the always-on analogue of the fault-drill
discipline used everywhere else in this repo: run the op stream once
*uninterrupted* and pin its final BENCH payload bytes; then, for each
seeded injection point (mid-tick, mid-snapshot, mid-journal-append),
run again with a kill plan, crash, **restart against the same state
directory**, resend every op the client never got an ack for, finish
the stream — and require the recovered payload to be *byte-identical*
to the uninterrupted one with **zero acknowledged submissions lost**.

The client model is deliberately at-least-once: after a crash it
resends from the first unacknowledged op.  The daemon's op-id dedup
(exactly-once apply) is what makes the resend safe, and the drill is
the continuous proof that the pair composes correctly.
"""

from __future__ import annotations

import dataclasses
import pathlib
import shutil
import time

from repro.serve.daemon import ServeRuntime, SimulatedCrash, parse_kill_spec
from repro.serve.journal import canonical_json
from repro.utils.eventlog import parse_json

#: One injection point per kill-plan kind: crash the daemon mid-tick,
#: mid-snapshot-write, and mid-journal-append.
DEFAULT_POINTS = ("tick:2", "snapshot:1", "append:3")


def ops_from_trace(
    trace_path: str | pathlib.Path, *, limit: int | None = None
) -> list[dict]:
    """A deterministic op stream from a cluster trace.

    Jobs arrive in submit order; before each arrival the clock ticks to
    its arrival time, and the stream ends with a ``drain``.  Op ids are
    positional (1..N), so two loads of the same trace produce the same
    exactly-once stream.
    """
    from repro.sched.traces import load_trace, trace_to_specs

    specs = trace_to_specs(load_trace(trace_path))
    if limit is not None:
        specs = specs[:limit]
    ops: list[dict] = []
    for spec in sorted(specs, key=lambda s: (s.arrival_seconds, s.name)):
        if not ops or ops[-1].get("op") != "tick" or ops[-1]["until"] < spec.arrival_seconds:
            ops.append({"op": "tick", "until": spec.arrival_seconds})
        job = dataclasses.asdict(spec)
        ops.append({"op": "submit", "job": job})
    ops.append({"op": "drain"})
    for index, op in enumerate(ops):
        op["id"] = index + 1
    return ops


def ops_from_script(lines) -> list[dict]:
    """Parse a JSON-lines op script into a drill-ready op list with ids."""
    import json

    ops = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            ops.append(parse_json(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"ops line {lineno}: invalid JSON: {exc}") from exc
    for index, op in enumerate(ops):
        op.setdefault("id", index + 1)
    return ops


@dataclasses.dataclass
class DrillOutcome:
    """One injection point's verdict."""

    point: str
    #: Ops acknowledged before the crash.
    acked_before_crash: int
    #: Ops resent by the at-least-once client after restart.
    resent: int
    #: Of the resent ops, how many the daemon deduplicated (already
    #: applied — journaled before the crash).
    deduplicated: int
    #: Acknowledged submissions missing from the recovered state (the
    #: durability contract says this is always 0).
    lost_acked: int
    #: Final payload bytes match the uninterrupted run.
    payload_match: bool
    #: Recovery wall time (repair + snapshot load + replay), seconds.
    recovery_s: float
    replayed: int
    torn_bytes_dropped: int
    snapshot_slot: str | None


class RecoveryDrill:
    """Run an op stream with crashes at seeded points; verify recovery."""

    def __init__(
        self,
        config,
        ops: list[dict],
        *,
        work_dir: str | pathlib.Path,
        points: tuple = DEFAULT_POINTS,
    ) -> None:
        for point in points:
            parse_kill_spec(point)  # fail fast on junk specs
        self.config = config
        self.ops = ops
        self.work_dir = pathlib.Path(work_dir)
        self.points = tuple(points)
        self.reference_payload: dict | None = None
        self.reference_bytes: bytes | None = None

    def _finalize(self, runtime: ServeRuntime) -> bytes:
        payload = runtime.finalize()
        runtime.close()
        return canonical_json(payload).encode("utf-8")

    def run_reference(self) -> dict:
        """The uninterrupted run whose payload bytes every drill must hit."""
        state_dir = self.work_dir / "reference"
        shutil.rmtree(state_dir, ignore_errors=True)
        runtime = ServeRuntime(self.config, state_dir)
        acked_jobs = []
        for op in self.ops:
            ack = runtime.handle(op)
            if not ack.get("ok"):
                raise ValueError(
                    f"reference run rejected op {op.get('id')}: {ack.get('error')}"
                )
            if op.get("op") == "submit":
                acked_jobs.append(op["job"]["name"])
        payload = runtime.finalize()
        self.reference_bytes = canonical_json(payload).encode("utf-8")
        self.reference_payload = payload
        runtime.close()
        self._acked_job_names = acked_jobs
        return payload

    def run_point(self, point: str) -> DrillOutcome:
        """Crash at one injection point, restart, resend, compare bytes."""
        if self.reference_bytes is None:
            self.run_reference()
        state_dir = self.work_dir / point.replace(":", "-")
        shutil.rmtree(state_dir, ignore_errors=True)
        runtime = ServeRuntime(self.config, state_dir, kill_plan=point)
        acked = 0
        acked_submits: list[str] = []
        crashed = False
        for op in self.ops:
            try:
                ack = runtime.handle(op)
            except SimulatedCrash:
                crashed = True
                break
            if not ack.get("ok"):
                raise ValueError(
                    f"drill {point}: op {op.get('id')} rejected: {ack.get('error')}"
                )
            acked += 1
            if op.get("op") == "submit":
                acked_submits.append(op["job"]["name"])
        if not crashed:
            raise ValueError(
                f"drill {point}: the op stream finished before the injection "
                "point fired — use a longer stream or an earlier point"
            )
        runtime.close()

        # Restart against the same state dir: repair + snapshot + replay.
        t0 = time.perf_counter()
        recovered = ServeRuntime(self.config, state_dir)
        recovery_s = time.perf_counter() - t0
        # At-least-once client: resend everything not acknowledged.
        resent = 0
        deduplicated = 0
        for op in self.ops[acked:]:
            ack = recovered.handle(op)
            resent += 1
            if ack.get("duplicate"):
                deduplicated += 1
            elif not ack.get("ok"):
                raise ValueError(
                    f"drill {point}: resent op {op.get('id')} rejected: "
                    f"{ack.get('error')}"
                )
        # Every acknowledged submission must exist in recovered state.
        lost = sum(
            1
            for name in acked_submits
            if name not in recovered.engine.records
        )
        final_bytes = self._finalize(recovered)
        return DrillOutcome(
            point=point,
            acked_before_crash=acked,
            resent=resent,
            deduplicated=deduplicated,
            lost_acked=lost,
            payload_match=final_bytes == self.reference_bytes,
            recovery_s=recovery_s,
            replayed=recovered.recovery["replayed"],
            torn_bytes_dropped=recovered.recovery["torn_bytes_dropped"],
            snapshot_slot=recovered.recovery["snapshot_slot"],
        )

    def run(self) -> dict:
        """Reference + every injection point; returns the drill report."""
        self.run_reference()
        outcomes = [self.run_point(point) for point in self.points]
        return {
            "points": [dataclasses.asdict(o) for o in outcomes],
            "all_match": all(o.payload_match for o in outcomes),
            "lost_acked_total": sum(o.lost_acked for o in outcomes),
            "max_recovery_s": max(o.recovery_s for o in outcomes),
            "ops": len(self.ops),
            "reference_digest": (
                self.reference_payload["meta"]["serve"]["digest"]
                if self.reference_payload
                else None
            ),
        }


__all__ = [
    "DEFAULT_POINTS",
    "DrillOutcome",
    "RecoveryDrill",
    "ops_from_script",
    "ops_from_trace",
]
