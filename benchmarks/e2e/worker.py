"""One segment of one workload, in a process of its own.

The orchestrator (:mod:`benchmarks.e2e.cli`) starts one worker at a
time, so ``peak_rss_mb`` is per workload and ``setup_s`` — process spawn
to first timed op: imports, input generation, construction, warm-up —
is paid from cold every time.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pathlib
import resource
import sys
import time

from . import spec

MODULES = {
    "train-compute": "train",
    "train-comm": "train",
    "sched-replay": "sched",
    "serve-soak": "serve",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.worker")
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(spec.SIZES), default="full")
    parser.add_argument("--mode", choices=("setup", "measure"), default="measure")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the orchestrator at spawn")
    parser.add_argument("--work-dir", type=pathlib.Path, required=True)
    parser.add_argument("--reference", default=None)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    if not spec.blas_pinned():
        print(f"error: BLAS is not pinned (set {', '.join(spec.BLAS_PIN)} to 1)", file=sys.stderr)
        return 2
    if not (spec.ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {spec.ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(spec.ROOT / "src"))
    module = importlib.import_module(f"{__package__}.{MODULES[args.workload]}")
    sizes = spec.SIZES[args.scale][args.workload]
    reference = (
        spec.load_reference(args.reference)
        .get(args.scale, {}).get(args.workload, {}).get(str(args.seed))
    )
    args.work_dir.mkdir(parents=True, exist_ok=True)

    ctx = module.setup(args.workload, args.seed, sizes, args.work_dir)
    setup_s = time.monotonic() - args.spawned_at
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from .hostspeed import HostSpeed

    speed = HostSpeed()
    if args.trace:
        # End-to-end numbers always come from an untraced half; the
        # traced half runs the same seed on fresh state with proxies in.
        from .tracing import SpanRecorder

        untraced = module.measure(ctx, args.seconds / 2, reference, speed)
        recorder = SpanRecorder(args.workload)
        traced_ctx = module.setup(args.workload, args.seed, sizes, args.work_dir, recorder)
        result = module.trace(traced_ctx, args.seconds / 2, reference, untraced)
        if args.trace_out:
            pathlib.Path(args.trace_out).write_text(json.dumps(recorder.dump()))
    else:
        result = module.measure(ctx, args.seconds, reference, speed)
    # Rates and latencies at reference host speed (see hostspeed.py);
    # the raw wall-clock numbers stay in the per-layer list.
    factor = speed.factor()
    result["work_per_s"] *= factor
    result["latency_ms_p50"] /= factor
    result["layers"]["host.speed_factor"] = factor
    result["layers"]["host.speed_samples"] = len(speed.samples)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
