"""Orchestration: one worker process at a time, results by metric name.

Three human entry points (``python -m benchmarks.e2e run | calibrate |
compare``) and the driver entry point (``bench.py``: one workload, one
JSON line) all go through :func:`run_segment`, so they time exactly the
same thing.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

from . import spec

#: A worker that has not answered by then is stuck (driver cap: 180 s).
WORKER_TIMEOUT_S = 170
#: Fresh-process set-ups per segment; ``setup_s`` is their median.
SETUPS = 5

#: Layer separation the workloads were chosen for, checked on the traced
#: round of ``run``: share name -> (workload, comparison, threshold).
SEPARATION = (
    ("train-compute", "models.forward_backward_ms", ">=", 0.80),
    ("train-compute", "comm.aggregate_ms", "<=", 0.15),
    ("train-comm", "comm.aggregate_ms", ">=", 0.50),
    ("serve-soak", "serve.engine.apply_s", "<=", 0.20),
    ("serve-soak", "ack_quartile_ratio", ">=", 2.0),
)
#: Spans must account for the measured wall, tracing must stay cheap.
MIN_ATTRIBUTED, MAX_TRACE_OVERHEAD = 0.90, 0.10


class BenchError(RuntimeError):
    """A worker failed; the message is its one-line error."""


def _spawn(workload, seed, seconds, *, trace, scale, mode, work_dir, reference, trace_out):
    command = [
        sys.executable, "-m", f"{__package__}.worker",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--scale", scale, "--mode", mode,
        "--work-dir", str(work_dir), "--spawned-at", repr(time.monotonic()),
    ]
    if reference:
        command += ["--reference", str(reference)]
    if trace_out:
        command += ["--trace-out", str(trace_out)]
    done = subprocess.run(
        command, cwd=spec.ROOT, env=spec.pinned_env(), capture_output=True,
        text=True, timeout=WORKER_TIMEOUT_S,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = (done.stderr.strip().splitlines() or ["no output"])[-1]
        raise BenchError(f"{workload} worker exited {done.returncode}: {tail}")
    return json.loads(lines[-1])


def run_segment(workload, seed, seconds, *, trace=False, scale="full",
                reference=None, trace_out=None, setups=SETUPS) -> dict:
    """One fresh-state segment of ``workload``: the worker's result with
    ``setup_s`` replaced by the median of ``setups`` cold set-ups."""
    work_dir = spec.WORK_ROOT / f"{os.getpid()}-{workload}"
    options = dict(trace=trace, scale=scale, work_dir=work_dir, reference=reference)
    try:
        cold = [
            _spawn(workload, seed, seconds, mode="setup", trace_out=None, **options)["setup_s"]
            for _ in range(setups - 1)
        ]
        result = _spawn(workload, seed, seconds, mode="measure", trace_out=trace_out, **options)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            spec.WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is using it
    result["setup_s"] = spec.median(cold + [result["setup_s"]])
    return result


def end_to_end(result: dict, benchmark: dict) -> dict:
    return {m["name"]: result[m["name"]] for m in benchmark["end_to_end"]}


def failed_checks(result: dict) -> list[str]:
    return [f"{name}: {check['detail']}" for name, check in result["checks"].items()
            if not check["ok"]]


# -- driver entry point --------------------------------------------------------

def bench_main(argv=None) -> int:
    """``<command> --workload W --seed N --seconds S --trace 0|1``."""
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/bench.py")
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    benchmark = spec.load_benchmark()
    try:
        result = run_segment(args.workload, args.seed, args.seconds, trace=bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        values = {m["name"]: result["layers"].get(m["name"], 0.0) for m in benchmark["per_layer"]}
        units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    else:
        values = end_to_end(result, benchmark)
        units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    failures = failed_checks(result)
    for line in failures:
        print(f"check failed: {line}")
    print(json.dumps({
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


# -- python -m benchmarks.e2e --------------------------------------------------

def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=spec.ROOT, capture_output=True, text=True,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "nproc": spec.visible_cpus(),
        "blas_threads": 1,  # workers refuse to start unpinned
        "numpy": importlib.metadata.version("numpy"),
        "python": sys.version.split()[0],
        "commit": commit,
    }


def _separation_failures(traced: dict[str, dict]) -> list[str]:
    failures = []
    for workload, share, op, threshold in SEPARATION:
        if workload not in traced:
            continue
        value = traced[workload]["shares"][share]
        if not (value >= threshold if op == ">=" else value <= threshold):
            failures.append(f"{workload}: {share} share {value:.3f} is not {op} {threshold}")
    for workload, result in traced.items():
        if result["shares"]["attributed"] < MIN_ATTRIBUTED:
            failures.append(
                f"{workload}: spans cover {result['shares']['attributed']:.3f} of the wall")
        overhead = result["layers"]["trace.overhead_share"]
        if overhead > MAX_TRACE_OVERHEAD:
            failures.append(f"{workload}: trace.overhead_share {overhead:.3f}")
    return failures


def run(args) -> int:
    benchmark = spec.load_benchmark()
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    workloads = (args.only,) if args.only else spec.WORKLOADS
    # Smoke: one round at tiny sizes, one set-up per segment.
    scale, rounds, seconds, setups = (
        ("smoke", 1, 0.2, 1) if args.smoke else ("full", args.rounds, args.seconds, SETUPS)
    )
    # Rounds interleave the workloads (A B C D, A B C D, ...) so slow
    # host drift hits all of them alike; the metric is the median round.
    per_round: dict[str, list[dict]] = {name: [] for name in workloads}
    problems: list[str] = []
    for round_id in range(rounds):
        for workload in workloads:
            result = run_segment(workload, args.seed, seconds, scale=scale,
                                 reference=args.reference, setups=setups)
            per_round[workload].append(result)
            problems += [f"{workload} round {round_id}: {line}" for line in failed_checks(result)]
    traced: dict[str, dict] = {}
    if args.traced:
        for workload in workloads:
            trace_out = f"{args.trace_out}.{workload}.json" if args.trace_out else None
            traced[workload] = run_segment(
                workload, args.seed, 2 * seconds, trace=True, scale=scale,
                reference=args.reference, trace_out=trace_out, setups=setups)
            problems += [f"{workload} traced: {line}" for line in failed_checks(traced[workload])]
        if not args.smoke:  # shares of a sub-second smoke round mean nothing
            problems += [f"separation: {line}" for line in _separation_failures(traced)]

    report = {"meta": {**environment(), "seed": args.seed, "scale": scale, "rounds": rounds,
                       "seconds": seconds}, "workloads": {}}
    for workload, results in per_round.items():
        rows = [end_to_end(result, benchmark) for result in results]
        entry = {
            "rounds": rows,
            "metrics": {name: spec.median(row[name] for row in rows) for name in rows[0]},
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "observed": results[0]["observed"],
        }
        entry["failed_share"] = entry["failed"] / entry["attempted"]
        if workload in traced:
            entry["per_layer"] = {
                m["name"]: traced[workload]["layers"].get(m["name"], 0.0)
                for m in benchmark["per_layer"]
            }
        report["workloads"][workload] = entry
        print(f"{workload}  (attempted {entry['attempted']}, failed {entry['failed']})")
        for name, value in entry["metrics"].items():
            print(f"  {name:<44} {value:>14.4f} {units[name]}")
        for name, value in entry.get("per_layer", {}).items():
            if name in traced[workload]["layers"]:  # omit layers this workload bypasses
                print(f"  {name:<44} {value:>14.4f} {units[name]}")
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for line in problems:
        print(f"FAILED {line}")
    return 1 if problems else 0


def calibrate(args) -> int:
    """The driver's acceptance rule, run here: ``--sets`` runs of every
    workload, each with another seed, spread = quartile distance / median."""
    if spec.visible_cpus() < 2:
        print(f"error: calibration needs >= 2 visible CPUs, found {spec.visible_cpus()}",
              file=sys.stderr)
        return 2
    benchmark = spec.load_benchmark()
    seconds = benchmark["run_seconds"]
    values: dict[tuple[str, str], list[float]] = {}
    for index in range(args.sets):
        for workload in spec.WORKLOADS:
            result = run_segment(workload, args.seed + index, seconds)
            for line in failed_checks(result):
                print(f"FAILED {workload} seed {args.seed + index}: {line}")
            for name, value in end_to_end(result, benchmark).items():
                values.setdefault((name, workload), []).append(value)
    rows = []
    print(f"{'metric':<18}{'workload':<16}{'median':>14}{'spread':>9}{'bound':>7}  verdict")
    for metric in benchmark["end_to_end"]:
        for workload in spec.WORKLOADS:
            sample = values[(metric["name"], workload)]
            spread = spec.spread(sample)
            # Committed bounds are no tighter than twice the spread seen
            # here; the aim is a spread under a third of the bound.  The
            # driver holds setup_s to its median only, not to its spread.
            verdict = ("steady" if spread < metric["bound"] / 3
                       else "ok" if spread <= metric["bound"] / 2
                       else "exempt" if metric["name"] == "setup_s" else "TOO NOISY")
            rows.append({"metric": metric["name"], "workload": workload, "values": sample,
                         "median": spec.median(sample), "spread": spread,
                         "bound": metric["bound"], "verdict": verdict})
            print(f"{metric['name']:<18}{workload:<16}{spec.median(sample):>14.4f}"
                  f"{spread:>9.4f}{metric['bound']:>7.2f}  {verdict}")
    if args.out:
        report = {"meta": {**environment(), "sets": args.sets, "seconds": seconds}, "rows": rows}
        pathlib.Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 1 if any(row["verdict"] == "TOO NOISY" for row in rows) else 0


def compare(args) -> int:
    """Per (metric, workload): ratio with its base, bound and a verdict —
    ``agree``, ``worse``, or ``unresolved`` when the rounds of either
    side spread wider than the bound (then nothing can be concluded)."""
    benchmark = spec.load_benchmark()
    base, other = (json.loads(pathlib.Path(p).read_text())["workloads"] for p in (args.a, args.b))
    verdicts = set()
    workloads = [name for name in spec.WORKLOADS if name in base and name in other]
    print(f"{'metric':<18}{'workload':<16}{'A (base)':>14}{'B':>14}{'B/A':>8}{'bound':>7}  verdict")
    for metric in benchmark["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in workloads:
            a, b = base[workload]["metrics"][name], other[workload]["metrics"][name]
            rounds = [[row[name] for row in side[workload]["rounds"]] for side in (base, other)]
            worsening = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            if any(len(r) < 2 or spec.spread(r) > bound for r in rounds):
                verdict = "unresolved"
            else:
                verdict = "worse" if worsening > bound else "agree"
            verdicts.add(verdict)
            print(f"{name:<18}{workload:<16}{a:>14.4f}{b:>14.4f}{b / a:>8.3f}{bound:>7.2f}  {verdict}")
    for workload in workloads:
        for side, label in ((base, "A"), (other, "B")):
            if side[workload]["failed"]:
                verdicts.add("worse")
                print(f"failed ops on {workload} in {label}: {side[workload]['failed']}")
    return 1 if verdicts - {"agree"} else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    p = commands.add_parser("run", help="every workload, every metric, outputs checked")
    p.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    p.add_argument("--rounds", type=int, default=4)
    p.add_argument("--seconds", type=float, default=8.0, help="timed seconds per segment")
    p.add_argument("--traced", action="store_true", help="add one traced round (per-layer)")
    p.add_argument("--trace-out", default=None, help="span files: <prefix>.<workload>.json")
    p.add_argument("--smoke", action="store_true", help="one round at tiny sizes")
    p.add_argument("--only", choices=spec.WORKLOADS, default=None, help="just this workload")
    p.add_argument("--reference", default=None, help="another reference.json")
    p.add_argument("--out", default=None)
    p.set_defaults(call=run)
    p = commands.add_parser("calibrate", help="run-to-run spread of every end-to-end metric")
    p.add_argument("--sets", type=int, default=10)
    p.add_argument("--seed", type=int, default=1, help="first seed; set i uses seed + i")
    p.add_argument("--out", default=None)
    p.set_defaults(call=calibrate)
    p = commands.add_parser("compare", help="two `run --out` files, row by row")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(call=compare)
    args = parser.parse_args(argv)
    if args.command == "calibrate" and args.sets < 5:
        parser.error("calibrate needs --sets >= 5")
    try:
        return args.call(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
