"""Run every experiment harness in paper order.

``python -m repro experiments`` (or ``python -m repro.experiments.runner``)
regenerates all tables/figures; ``--fast`` trims the expensive sweeps
(Fig. 6 CPU measurement, long convergence runs, the elastic churn sweep)
and ``--only`` substring-filters by experiment name.

``--jobs N`` (``0`` = all usable cores) fans the selected harnesses
across a :mod:`repro.exec` process pool — each harness is independent
and seeded, so outputs are identical to the serial run; stdout is
captured per harness and printed in paper order, so the transcript is
deterministic too (only the timings move).  ``--jobs 1``, the default,
runs them inline and streams their output live.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.exec.config import resolve_jobs
from repro.experiments import (
    brain_autotune,
    elastic_churn,
    fault_drills,
    fig1_breakdown,
    fig6_topk_ops,
    fig7_aggregation,
    fig8_hitopk_breakdown,
    fig9_datacache,
    fig10_convergence,
    multi_tenant,
    pto_speedup,
    table1_instances,
    table2_validation,
    table3_throughput,
    table4_resolutions,
    table5_dawnbench,
)

EXPERIMENTS = (
    ("Table 1", table1_instances.main),
    ("Fig. 1", fig1_breakdown.main),
    ("Fig. 6", fig6_topk_ops.main),
    ("Fig. 7", fig7_aggregation.main),
    ("Fig. 8", fig8_hitopk_breakdown.main),
    ("Fig. 9", fig9_datacache.main),
    ("PTO (§5.4)", pto_speedup.main),
    ("Fig. 10", fig10_convergence.main),
    ("Table 2", table2_validation.main),
    ("Table 3", table3_throughput.main),
    ("Table 4", table4_resolutions.main),
    ("Table 5", table5_dawnbench.main),
    ("Elastic churn", elastic_churn.main),
    ("Multi-tenant sched", multi_tenant.main),
    ("Fault drills", fault_drills.main),
    ("Brain autotune", brain_autotune.main),
)

#: Harnesses whose ``main`` accepts ``fast=True`` to trim expensive
#: sweeps; the rest already run in seconds.
FAST_AWARE = (
    "Fig. 6",
    "Fig. 10",
    "Table 2",
    "Elastic churn",
    "Multi-tenant sched",
    "Fault drills",
    "Brain autotune",
)


def _selected(only: str | None) -> list[tuple[str, object]]:
    return [
        (name, entry)
        for name, entry in EXPERIMENTS
        if not only or only.lower() in name.lower()
    ]


def _run_serial(selected, fast: bool) -> None:
    for name, entry in selected:
        print(f"\n{'=' * 72}\n{name}\n{'=' * 72}")
        start = time.perf_counter()
        if fast and name in FAST_AWARE:
            entry(fast=True)
        else:
            entry()
        print(f"[{name} done in {time.perf_counter() - start:.1f}s]")


def _run_parallel(selected, fast: bool, jobs: int) -> None:
    from repro.exec.sweeper import ParallelSweeper

    sweeper = ParallelSweeper(jobs=jobs)
    entries = [
        (name, entry.__module__, fast and name in FAST_AWARE)
        for name, entry in selected
    ]
    start = time.perf_counter()
    outputs = sweeper.run_experiments(entries)
    elapsed = time.perf_counter() - start
    for name, text in outputs:
        print(f"\n{'=' * 72}\n{name}\n{'=' * 72}")
        print(text, end="" if text.endswith("\n") else "\n")
    print(
        f"[{len(outputs)} experiments done in {elapsed:.1f}s, jobs={jobs}]"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--only",
        default=None,
        help="substring filter on experiment names (e.g. 'Fig. 7')",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="trim the expensive sweeps (Fig. 6 CPU measurement, "
        "long convergence runs, the elastic churn sweep)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the harness fan-out (1 = inline with "
        "live output, the default; 0 = all usable cores)",
    )
    args = parser.parse_args(argv)

    selected = _selected(args.only)
    if not selected:
        print(f"no experiment matches --only {args.only!r}", file=sys.stderr)
        return 2
    try:
        jobs = resolve_jobs(args.jobs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if jobs == 1:
        _run_serial(selected, args.fast)
    else:
        _run_parallel(selected, args.fast, jobs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
