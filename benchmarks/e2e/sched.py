"""``sched-replay``: the scheduler core used in batch.

One seeded ``generate_trace`` day replayed through
``MultiTenantScheduler.run`` under ``fault-aware`` placement with the
committed fault plan (revocation-heavy traces are the realistic input)
and the ``health-migrate`` brain attached.  Nothing durable, no per-op
digest — the opposite use of the same core to ``serve-soak``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

from repro.api.config import BrainConfig
from repro.faults.plan import FaultPlan
from repro.sched.job import JobSpec
from repro.sched.policies import build_policy, register_policy
from repro.sched.scheduler import MultiTenantScheduler
from repro.sched.traces import (
    SyntheticTraceConfig,
    distribution_rows,
    generate_trace,
    load_trace,
    trace_to_specs,
    write_trace,
)

from .spec import FIXTURES, median
from .tracing import SpanRecorder, merge_halves

POLICY = "fault-aware"
#: The same policy behind a span; registered only in traced rounds.
TRACED_POLICY = "e2e-traced-fault-aware"
BRAIN = BrainConfig(name="health-migrate", interval=600)
#: Host-speed sampling period inside a replay (~2.5 % of its wall).
SPEED_INTERVAL_S = 0.2
#: Days one seed can fan out to (day ``i`` of seed ``s`` is trace seed
#: ``s * MAX_DAYS + i``, so no two seeds share a day).
MAX_DAYS = 64


@dataclass
class SchedContext:
    seed: int
    sizes: dict
    plan: FaultPlan
    work_dir: object
    recorder: SpanRecorder | None
    days: list[list[JobSpec]] = field(default_factory=list)
    warm_digests: list[str] = field(default_factory=list)

    def day(self, index: int) -> list[JobSpec]:
        """The ``index``-th seeded day; generated on first use (untimed)."""
        while len(self.days) <= index:
            trace_seed = self.seed * MAX_DAYS + len(self.days) % MAX_DAYS
            self.days.append(trace_to_specs(generate_trace(
                SyntheticTraceConfig(num_jobs=self.sizes["jobs"], seed=trace_seed))))
        return self.days[index]


def _scheduler(ctx: SchedContext, policy=POLICY, *, faults=True, brain=True):
    return MultiTenantScheduler(
        num_nodes=ctx.sizes["nodes"],
        gpus_per_node=ctx.sizes["gpus"],
        policy=policy,
        seed=ctx.seed,
        name="e2e",
        faults=ctx.plan if faults else None,
        brain=BRAIN if brain else None,
    )


def setup(name, seed, sizes, work_dir, recorder=None) -> SchedContext:
    plan = FaultPlan.from_config(
        json.loads((FIXTURES / "sched_faults.json").read_text()),
        seed=seed, target="sched",
    )
    ctx = SchedContext(seed, sizes, plan, work_dir, recorder)
    # Warm-up: a short replay pulls in the lazily imported fault and
    # brain drivers, so the first timed replay pays no import.  Run
    # twice, it is also the determinism check (same input, same digest)
    # the timed loop cannot afford on 7-second replays.
    head = ctx.day(0)[: sizes["warm_jobs"]]
    ctx.warm_digests = [_rows_digest(_scheduler(ctx).run(head)) for _ in range(2)]
    return ctx


def _rows_digest(report) -> str:
    """sha256-16 of the canonical distribution rows, policy name dropped
    (the traced round runs the same policy under another name)."""
    rows = [row[1:] for row in distribution_rows([report])]
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _replay(scheduler, specs, recorder=None):
    start = time.perf_counter()
    if recorder is None:
        report = scheduler.run(specs)
    else:
        with recorder.span("sched.run"):
            report = scheduler.run(specs)
    return report, time.perf_counter() - start


def measure(ctx: SchedContext, seconds: float, reference: dict | None, speed) -> dict:
    """Replays until ``seconds`` have passed, each of another seeded day
    (replay time varies ~6 % from day to day; the median over days is
    what a seed stands for).  A replay is one ~7 s call, so host speed
    is sampled on a timer inside it and the sampling time taken off."""
    jobs = ctx.sizes["jobs"]
    walls: list[float] = []
    day0_digest = ""
    done = events = 0
    deadline = time.perf_counter() + seconds
    while len(walls) < ctx.sizes["min_replays"] or time.perf_counter() < deadline:
        specs = ctx.day(len(walls))
        with speed.sampling_every(SPEED_INTERVAL_S) as sampled_s:
            report, wall = _replay(_scheduler(ctx), specs)
        walls.append(wall - sampled_s())
        day0_digest = day0_digest or _rows_digest(report)
        done += report.summary()["jobs_done"]
        events += report.events
    attempted = jobs * len(walls)
    checks = {
        "all_jobs_done": {"ok": done == attempted, "detail": f"{done} of {attempted} done"},
        "digest_stable": {
            "ok": len(set(ctx.warm_digests)) == 1,
            "detail": f"digests of the warm-up slice replayed twice: {ctx.warm_digests}",
        },
    }
    if reference is not None:
        checks["digest_reference"] = {
            "ok": day0_digest == reference["digest"],
            "detail": f"digest {day0_digest} vs recorded {reference['digest']}",
        }
    return {
        "attempted": attempted,
        "failed": attempted - done,
        "checks": checks,
        "observed": {"digest": day0_digest},
        "work_per_s": median(jobs / wall for wall in walls),
        "latency_ms_p50": median(walls) * 1e3,
        "layers": {
            "sched.run_s": median(walls),
            "sched.jobs_per_s": attempted / sum(walls),
            "sched.events": events / len(walls),
            "sched.events_per_s": events / sum(walls),
        },
    }


def trace_probe(jobs: int, seed: int, work_dir) -> dict:
    """Generator, spec conversion and file round trip of the same trace
    (what set-up pays before the first replay or soak)."""
    tick = time.perf_counter
    t0 = tick()
    trace = generate_trace(SyntheticTraceConfig(num_jobs=jobs, seed=seed))
    t1 = tick()
    trace_to_specs(trace)
    t2 = tick()
    load_trace(write_trace(trace, work_dir / "probe-trace.jsonl"))
    t3 = tick()
    return {
        "sched.traces.generate_ms": (t1 - t0) * 1e3,
        "sched.traces.to_specs_ms": (t2 - t1) * 1e3,
        "sched.traces.load_ms": (t3 - t2) * 1e3,
    }


def _cold_iteration_ms(ctx: SchedContext) -> float:
    """``iteration_seconds`` over the trace's distinct workload keys on a
    fresh scheduler: the price of the memo caches' misses."""
    scheduler = _scheduler(ctx)
    distinct = {}
    for spec in ctx.day(0):
        gpus = spec.gpus_per_node if spec.gpus_per_node is not None else scheduler.gpus_per_node
        distinct.setdefault(spec.workload_key(gpus), spec)
    start = time.perf_counter()
    for spec in distinct.values():
        scheduler.iteration_seconds(spec, nodes=spec.min_nodes)
    return (time.perf_counter() - start) * 1e3


def trace(ctx: SchedContext, seconds, reference: dict | None, untraced: dict) -> dict:
    recorder = ctx.recorder
    inner = build_policy(POLICY)

    @register_policy(TRACED_POLICY, overwrite=True)
    def _traced_policy(job, candidates, state):
        with recorder.span("sched.policies.place"):
            return inner(job, candidates, state)

    specs = ctx.day(0)
    report, traced_wall = _replay(_scheduler(ctx, TRACED_POLICY), specs, recorder)
    start = time.perf_counter()
    summary = report.summary()
    digest = _rows_digest(report)
    report_ms = (time.perf_counter() - start) * 1e3
    # Ablation on the same day, back to back with the traced replay so
    # all four see the same stretch of the host: core -> +faults -> +brain.
    _, full_s = _replay(_scheduler(ctx), specs)
    _, faults_s = _replay(_scheduler(ctx, brain=False), specs)
    _, core_s = _replay(_scheduler(ctx, "bin-pack", faults=False, brain=False), specs)
    place = recorder.totals()["sched.policies.place"]

    jobs = len(specs)
    result = merge_halves(untraced, {
        "attempted": jobs,
        "failed": jobs - summary["jobs_done"],
        "checks": {"matches_untraced": {
            "ok": digest == untraced["observed"]["digest"] and summary["jobs_done"] == jobs,
            "detail": f"traced digest {digest}, {summary['jobs_done']} of {jobs} done",
        }},
    })
    layers = dict(untraced["layers"])
    layers.update(trace_probe(jobs, ctx.seed, ctx.work_dir))
    layers.update({
        "sched.core_s": core_s,
        "sched.report_ms": report_ms,
        "sched.policies.place_ms_total": place["total"] * 1e3,
        "sched.policies.place_calls": place["count"],
        "faults.overhead_s": faults_s - core_s,
        "faults.entries": len((report.fault_log or {}).get("entries", ())),
        "brain.overhead_s": full_s - faults_s,
        "brain.actions": sum(
            (report.brain_log or {}).get(kind, 0) for kind in ("migrations", "grows", "shrinks")
        ),
        "perf.iteration_seconds_cold_ms": _cold_iteration_ms(ctx),
        "trace.overhead_share": traced_wall / full_s - 1.0,
        "trace.spans": len(recorder.spans),
    })
    result["layers"] = layers
    result["shares"] = {"attributed": 1.0}  # one root span; the rest is its self time
    return result
