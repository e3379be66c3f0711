"""Trace-aware job loading and trace-scale result payloads.

:func:`job_specs_for` is the one place a :class:`~repro.api.config
.SchedConfig` yields its scheduler job specs — its inline ``jobs`` (the
section *is* :class:`~repro.sched.job.JobSpec`) or its ``trace`` loaded
from disk — for the serial facade path and the ``repro.exec`` pool
workers alike (each pool worker loads the trace itself; only the config
dict crosses the process boundary).

:func:`payload_for_trace_reports` is the BENCH payload for trace-scale
runs: per-job rows would mean tens of thousands of lines, so it emits
JCT / queue-wait / slowdown / cost *distributions* (nearest-rank
percentiles — deterministic, no interpolation) per policy instead.
Wall-clock throughput never enters the rows, which keeps ``--jobs 1``
and ``--jobs 4`` replays bit-identical; jobs/sec lives in bench meta.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.sched.job import DONE, JobSpec
from repro.sched.scheduler import SchedReport
from repro.sched.traces.ingest import load_trace, trace_to_specs
from repro.utils.bench import bench_payload

#: Columns of the per-policy distribution rows.
DISTRIBUTION_COLUMNS = [
    "policy",
    "metric",
    "count",
    "mean",
    "p50",
    "p90",
    "p99",
    "max",
]

#: metric name -> (value extractor over JobOutcome, done-jobs only?).
_METRICS = {
    "jct_s": (lambda o: o.jct_s, True),
    "queue_wait_s": (lambda o: o.queue_wait_s, False),
    "contention_slowdown": (lambda o: o.contention_slowdown, True),
    "cost_usd": (lambda o: o.cost_usd, False),
}


def job_specs_for(config) -> list[JobSpec]:
    """The job specs a sched config describes (inline jobs or a trace)."""
    if config.trace is not None:
        return trace_to_specs(load_trace(config.trace))
    return list(config.jobs)


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted non-empty list."""
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(len(ordered), rank) - 1]


def distribution_rows(reports: Sequence[SchedReport]) -> list[list]:
    rows: list[list] = []
    for report in reports:
        done = [o for o in report.jobs if o.status == DONE]
        for metric, (extract, done_only) in _METRICS.items():
            outcomes = done if done_only else report.jobs
            values = sorted(
                v for v in (extract(o) for o in outcomes) if v is not None
            )
            if not values:
                rows.append([report.policy, metric, 0, None, None, None, None, None])
                continue
            rows.append(
                [
                    report.policy,
                    metric,
                    len(values),
                    round(sum(values) / len(values), 4),
                    round(_percentile(values, 0.50), 4),
                    round(_percentile(values, 0.90), 4),
                    round(_percentile(values, 0.99), 4),
                    round(values[-1], 4),
                ]
            )
    return rows


def payload_for_trace_reports(
    reports: Sequence[SchedReport],
    *,
    bench: str = "trace_replay",
    trace: str | None = None,
) -> dict:
    """One BENCH-schema payload of distribution rows for trace runs."""
    if not reports:
        raise ValueError("need at least one SchedReport")
    first = reports[0]
    return bench_payload(
        bench,
        title=(
            f"{bench}: {len(first.jobs)} jobs on {first.num_nodes}x"
            f"{first.gpus_per_node} {first.instance} "
            f"({', '.join(r.policy for r in reports)})"
        ),
        columns=DISTRIBUTION_COLUMNS,
        rows=distribution_rows(reports),
        meta={
            "trace": trace,
            "num_jobs": len(first.jobs),
            "instance": first.instance,
            "num_nodes": first.num_nodes,
            "gpus_per_node": first.gpus_per_node,
            "seed": first.seed,
            "policies": [r.policy for r in reports],
            "summary": {r.policy: r.summary() for r in reports},
        },
    )


__all__ = [
    "DISTRIBUTION_COLUMNS",
    "job_specs_for",
    "distribution_rows",
    "payload_for_trace_reports",
]
