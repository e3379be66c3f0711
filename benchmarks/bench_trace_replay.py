"""Trace replay at production scale: throughput + determinism gates.

Replays seeded synthetic day-long traces (the ``repro.sched.traces``
generator, so no external download) through the closed-form scheduler
fast path at two scales:

* **1k jobs** — run *twice*; the two distribution payloads must match
  bit for bit.  The fast path is pure simulation (no wall-clock in any
  row), so replay determinism is asserted on every host.
* **10k jobs** — the headline: one day of a busy cluster through
  ``MultiTenantScheduler.run`` in one process.  Jobs/sec goes in bench
  meta; the wall-clock acceptance bar (60 s) and the throughput floor
  (100 jobs/s) arm everywhere — a laptop clears both with ~3x headroom.

Rows are per-policy *distributions* (JCT / queue wait / contention
slowdown / cost; nearest-rank percentiles) prefixed with the scale, via
:func:`repro.sched.traces.distribution_rows`.

Emits ``results/BENCH_trace_replay_run.json``; the *committed* baseline
lives at ``results/BENCH_trace_replay.json`` and is never written by a
bench run (updating it is a deliberate ``cp`` after a representative
run).  The CI ``trace-smoke`` job gates fresh runs against it via
``check_regression.py trace_replay``.
"""

import time

import pytest
from check_regression import assert_gates

from repro.exec.backend import cpu_count
from repro.sched.scheduler import MultiTenantScheduler
from repro.sched.traces import (
    DISTRIBUTION_COLUMNS,
    SyntheticTraceConfig,
    distribution_rows,
    generate_trace,
    trace_to_specs,
)
from repro.utils.tables import format_table

#: Scales measured; the big one is the acceptance headline.
SCALES = (1_000, 10_000)
SEED = 2021
NUM_NODES = 16
GPUS_PER_NODE = 8
POLICY = "bin-pack"


def _replay(num_jobs: int) -> tuple[list[list], float, dict]:
    """(distribution rows, wall seconds, report summary) for one scale."""
    trace = generate_trace(SyntheticTraceConfig(num_jobs=num_jobs, seed=SEED))
    specs = trace_to_specs(trace)
    scheduler = MultiTenantScheduler(
        num_nodes=NUM_NODES,
        gpus_per_node=GPUS_PER_NODE,
        policy=POLICY,
        seed=SEED,
        name=f"trace-{num_jobs}",
    )
    start = time.perf_counter()
    report = scheduler.run(specs)
    seconds = time.perf_counter() - start
    return distribution_rows([report]), seconds, report.summary()


@pytest.fixture(scope="module")
def replay(save_result):
    rows: list[list] = []
    seconds: dict[int, float] = {}
    summaries: dict[int, dict] = {}
    determinism_ok = True
    for num_jobs in SCALES:
        scale_rows, scale_seconds, summary = _replay(num_jobs)
        if num_jobs == min(SCALES):
            rerun_rows, _, rerun_summary = _replay(num_jobs)
            if rerun_rows != scale_rows or rerun_summary != summary:
                determinism_ok = False
        rows.extend([num_jobs, *row] for row in scale_rows)
        seconds[num_jobs] = scale_seconds
        summaries[num_jobs] = summary

    columns = ["jobs", *DISTRIBUTION_COLUMNS]
    cores = cpu_count()
    text = format_table(
        columns,
        rows,
        title=(
            f"Trace replay: synthetic day (seed {SEED}) on {NUM_NODES}x"
            f"{GPUS_PER_NODE} tencent, policy {POLICY}"
        ),
    )
    payload = save_result(
        "trace_replay_run",
        text,
        columns=columns,
        rows=rows,
        meta={
            "cpu_count": cores,
            "seed": SEED,
            "instance": "tencent",
            "num_nodes": NUM_NODES,
            "gpus_per_node": GPUS_PER_NODE,
            "policy": POLICY,
            "determinism_ok": determinism_ok,
            **{
                f"seconds_{n // 1000}k": round(seconds[n], 3) for n in SCALES
            },
            **{
                f"jobs_per_sec_{n // 1000}k": round(n / seconds[n], 1)
                for n in SCALES
            },
            "summaries": {str(n): summaries[n] for n in SCALES},
        },
    )
    return {"summaries": summaries, "payload": payload}


def test_bench_replay_determinism(benchmark, replay):
    """Same trace, same seed => bit-identical distributions, any host."""

    def check():
        assert_gates("trace_replay", replay["payload"], "replay determinism")
        return True

    assert benchmark(check)


def test_bench_replay_completes(benchmark, replay):
    """Every scale schedules the full queue and bills real dollars."""

    def check():
        for num_jobs in SCALES:
            summary = replay["summaries"][num_jobs]
            assert summary["jobs_done"] >= 0.95 * num_jobs, summary
            assert summary["total_cost_usd"] > 0
        return True

    assert benchmark(check)


def test_bench_replay_throughput(benchmark, replay):
    """The 10k-job day clears the wall-clock and jobs/sec floors."""

    def check():
        assert_gates(
            "trace_replay",
            replay["payload"],
            "10k-job day wall clock",
            "10k-job throughput floor",
        )
        return True

    assert benchmark(check)
