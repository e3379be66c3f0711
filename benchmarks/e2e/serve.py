"""``serve-soak``: the scheduler core used as a durable service.

A seeded trace becomes an op stream (``ops_from_trace``: tick to each
arrival, submit, final drain) fed one op at a time to
``ServeRuntime.handle`` in a fresh state dir — incremental ``_advance``,
WAL fsync and a full-state digest per ack — after which the state dir is
reopened to time recovery.  One closed-loop client.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass

from repro.api.config import ServeConfig
from repro.serve.daemon import ServeRuntime
from repro.serve.drill import ops_from_trace
from repro.serve.journal import Journal, canonical_json, encode_frame, repair_journal
from repro.serve.snapshot import SnapshotStore
from repro.sched.traces import SyntheticTraceConfig, generate_trace, write_trace

from .sched import trace_probe
from .spec import FIXTURES, median, percentile
from .tracing import SpanRecorder, merge_halves, traced


@dataclass
class ServeContext:
    seed: int
    sizes: dict
    config: ServeConfig
    ops: list[dict]
    work_dir: object
    recorder: SpanRecorder | None


def _ops(jobs: int, seed: int, path) -> list[dict]:
    write_trace(generate_trace(SyntheticTraceConfig(num_jobs=jobs, seed=seed)), path)
    return ops_from_trace(path)


def setup(name, seed, sizes, work_dir, recorder=None) -> ServeContext:
    config = ServeConfig.from_dict(
        {
            **json.loads((FIXTURES / "serve_config.json").read_text()),
            "seed": seed,
            "snapshot_every": sizes["snapshot_every"],
        }
    )
    ops = _ops(sizes["jobs"], seed, work_dir / "trace.jsonl")
    ctx = ServeContext(seed, sizes, config, ops, work_dir, recorder)
    # Warm-up: a short soak through the same journal, snapshot and
    # recovery code (lazy imports, first fsync on this directory).
    warm = ServeContext(
        seed, sizes, config,
        _ops(sizes["warm_jobs"], seed, work_dir / "warm-trace.jsonl"), work_dir, None,
    )
    _soak(warm, work_dir / "warm-state")
    shutil.rmtree(work_dir / "warm-state")
    return ctx


#: Ops between host-speed samples inside a soak.
SPEED_EVERY = 64


def _soak(ctx: ServeContext, state_dir, speed=None, shadow=None) -> dict:
    """One soak in the fresh ``state_dir``, then reopen it to time
    recovery.  A ``shadow`` runtime takes each op right after the timed
    one, so the two see the same moments of the host."""
    recorder = ctx.recorder
    runtime = ServeRuntime(ctx.config, state_dir)
    if recorder is not None:
        runtime.journal = traced(runtime.journal, recorder, {"append": "serve.journal.append"})
        runtime.store = traced(runtime.store, recorder, {"save": "serve.snapshot.save"})
        runtime.engine = traced(
            runtime.engine, recorder,
            {
                "apply_op": "serve.engine.apply",
                "state_digest": "serve.engine.state_digest",
                "snapshot_state": "serve.engine.snapshot_state",
            },
        )
    ack_s: list[float] = []
    shadow_s: list[float] = []
    kinds: list[str] = []
    not_ok = 0
    tick = time.perf_counter
    for index, op in enumerate(ctx.ops):
        if speed is not None and index % SPEED_EVERY == 0:
            speed.sample()
        start = tick()
        if recorder is None:
            ack = runtime.handle(op)
        else:
            with recorder.span("serve.daemon.handle"):
                ack = runtime.handle(op)
        ack_s.append(tick() - start)
        if shadow is not None:
            start = tick()
            shadow.handle(op)
            shadow_s.append(tick() - start)
        kinds.append(op["op"])
        if not ack.get("ok") or ack.get("duplicate"):
            not_ok += 1
    wall = sum(ack_s)  # time inside handle(); the client adds nothing
    digest = runtime.engine.state_digest()
    payload = canonical_json(runtime.engine.payload(replay=False)).encode("utf-8")
    status = runtime.status()
    runtime.close()

    start = tick()
    reopened = ServeRuntime(ctx.config, state_dir)
    recovery_s = tick() - start
    recovered = reopened.engine.state_digest() == digest
    # Acked-then-lost: every op was acked, so the reopened engine must
    # have consumed the last op id and every submission.
    lost = int(
        reopened.engine.last_op_id != ctx.ops[-1]["id"]
        or reopened.engine.submitted != kinds.count("submit")
    )
    replayed = reopened.recovery["replayed"]
    reopened.close()
    return {
        "wall": wall, "ack_s": ack_s, "shadow_s": shadow_s, "kinds": kinds,
        "failed": not_ok + lost, "recovered": recovered, "recovery_s": recovery_s,
        "replayed": replayed, "rejected": status["rejected"],
        "snapshots": status["snapshots"],
        "journal_bytes": (state_dir / "journal.bin").stat().st_size,
        "payload_digest": hashlib.sha256(payload).hexdigest()[:16],
    }


def _summarise(ctx: ServeContext, soaks: list[dict], reference: dict | None) -> dict:
    ops = len(ctx.ops)
    ack_s = [s for soak in soaks for s in soak["ack_s"]]
    kinds = [k for soak in soaks for k in soak["kinds"]]
    quarter = ops // 4
    failed = sum(soak["failed"] for soak in soaks)
    payloads = sorted({soak["payload_digest"] for soak in soaks})
    checks = {
        "all_acked_ok": {"ok": failed == 0, "detail": f"{failed} acks not ok or acked-then-lost"},
        "recovered_digest": {
            "ok": all(soak["recovered"] for soak in soaks),
            "detail": "reopened state digest equals the pre-close digest",
        },
        "payload_stable": {
            "ok": len(payloads) == 1,
            "detail": f"payload digests over {len(soaks)} soaks: {payloads}",
        },
    }
    if reference is not None:
        checks["payload_reference"] = {
            "ok": payloads[0] == reference["payload_digest"],
            "detail": f"payload {payloads[0]} vs recorded {reference['payload_digest']}",
        }

    def by_kind(kind: str) -> float:
        return median(s for s, k in zip(ack_s, kinds) if k == kind) * 1e3

    def quartile_ms(part) -> float:
        return sum(sum(part(soak["ack_s"])) for soak in soaks) / (quarter * len(soaks)) * 1e3

    return {
        "attempted": ops * len(soaks),
        "failed": failed,
        "checks": checks,
        "observed": {"payload_digest": payloads[0]},
        "work_per_s": median(ops / soak["wall"] for soak in soaks),
        "latency_ms_p50": median(ack_s) * 1e3,
        "layers": {
            "serve.daemon.ops_per_s": ops * len(soaks) / sum(soak["wall"] for soak in soaks),
            "serve.daemon.ack_ms_p50": median(ack_s) * 1e3,
            "serve.daemon.ack_ms_p99": percentile(ack_s, 0.99) * 1e3,
            "serve.daemon.submit_ack_ms_p50": by_kind("submit"),
            "serve.daemon.tick_ack_ms_p50": by_kind("tick"),
            "serve.daemon.ack_ms_first_quartile": quartile_ms(lambda s: s[:quarter]),
            "serve.daemon.ack_ms_last_quartile": quartile_ms(lambda s: s[-quarter:]),
            "serve.daemon.rejected": soaks[-1]["rejected"],
            "serve.journal.bytes_per_op": soaks[-1]["journal_bytes"] / ops,
            "serve.snapshot.count": soaks[-1]["snapshots"],
            "serve.recovery.recovery_s": median(soak["recovery_s"] for soak in soaks),
            "serve.recovery.replayed_ops": soaks[-1]["replayed"],
        },
    }


def measure(ctx: ServeContext, seconds: float, reference: dict | None, speed) -> dict:
    soaks: list[dict] = []
    deadline = time.perf_counter() + seconds
    while len(soaks) < ctx.sizes["min_soaks"] or time.perf_counter() < deadline:
        soaks.append(_soak(ctx, ctx.work_dir / "state", speed))
        shutil.rmtree(ctx.work_dir / "state")
    return _summarise(ctx, soaks, reference)


def _probe(ctx: ServeContext, state_dir) -> dict:
    """Direct calls for what ``handle`` never does on its own: an
    unsynced append, a bare frame encode, a snapshot load, a journal scan."""
    tick = time.perf_counter
    records = [{"kind": "input", "seq": i + 1, "op": op} for i, op in enumerate(ctx.ops[:256])]
    start = tick()
    for record in records:
        encode_frame(record)
    encode_ms = (tick() - start) / len(records) * 1e3
    with Journal(ctx.work_dir / "probe-journal.bin", sync=False) as journal:
        start = tick()
        for record in records:
            journal.append(record)
        nosync_ms = (tick() - start) / len(records) * 1e3
    start = tick()
    SnapshotStore(state_dir).load()
    load_ms = (tick() - start) * 1e3
    start = tick()
    repair_journal(state_dir / "journal.bin")
    scan_ms = (tick() - start) * 1e3
    return {
        "serve.journal.encode_frame_ms": encode_ms,
        "serve.journal.append_nosync_ms": nosync_ms,
        "serve.snapshot.load_ms": load_ms,
        "serve.recovery.repair_scan_ms": scan_ms,
    }


def trace(ctx: ServeContext, seconds, reference: dict | None, untraced: dict) -> dict:
    """One traced soak, an untraced twin runtime taking every op right
    after it to price the tracing."""
    recorder = ctx.recorder
    state_dir = ctx.work_dir / "traced-state"
    twin = ServeRuntime(ctx.config, ctx.work_dir / "twin-state")
    soak = _soak(ctx, state_dir, shadow=twin)
    twin.close()
    shutil.rmtree(ctx.work_dir / "twin-state")
    traced_half = _summarise(ctx, [soak], reference)
    totals = recorder.totals()
    digests = recorder.durations("serve.engine.state_digest")
    handle = totals["serve.daemon.handle"]
    layers = dict(untraced["layers"])  # rates and percentiles come from the untraced half
    layers.update(_probe(ctx, state_dir))
    shutil.rmtree(state_dir)
    probe = trace_probe(ctx.sizes["jobs"], ctx.seed, ctx.work_dir)
    layers.update({k: probe[k] for k in ("sched.traces.generate_ms", "sched.traces.load_ms")})
    layers.update({
        "serve.engine.apply_s": totals["serve.engine.apply"]["total"],
        "serve.engine.state_digest_ms_p50": median(digests) * 1e3,
        "serve.engine.state_digest_ms_end": sum(digests[-16:]) / len(digests[-16:]) * 1e3,
        "serve.engine.snapshot_state_ms": (
            totals["serve.engine.snapshot_state"]["total"]
            / totals["serve.engine.snapshot_state"]["count"] * 1e3
        ),
        "serve.journal.append_fsync_ms": median(recorder.durations("serve.journal.append")) * 1e3,
        "serve.snapshot.save_ms": (
            totals["serve.snapshot.save"]["total"] / totals["serve.snapshot.save"]["count"] * 1e3
        ),
        "serve.daemon.unattributed_s": handle["self"],
        "trace.overhead_share": median(soak["ack_s"]) / median(soak["shadow_s"]) - 1.0,
        "trace.spans": len(recorder.spans),
    })
    result = merge_halves(untraced, traced_half)
    result["layers"] = layers
    result["shares"] = {
        "serve.engine.apply_s": layers["serve.engine.apply_s"] / soak["wall"],
        "ack_quartile_ratio": (
            layers["serve.daemon.ack_ms_last_quartile"]
            / layers["serve.daemon.ack_ms_first_quartile"]
        ),
        "attributed": 1.0 - handle["self"] / handle["total"],
    }
    return result
