"""``python -m repro`` — the command-line face of the facade.

Subcommands::

    repro run --config cfg.json [--set key=value ...] [--json] [--out PATH]
    repro sched (--config cfg.json | --trace PATH) [--set key=value ...]
              [--json] [--out PATH] [--jobs N]
    repro trace gen --out PATH [--num-jobs N] [--seed S] [--duration-hours H]
              [--payload-fraction F] [--format jsonl|csv]
    repro trace validate PATH [--json]
    repro serve --config cfg.json [--state-dir DIR] [--script PATH | --trace PATH
              | --socket PATH] [--drill] [--kill-at POINT] [--set key=value ...]
    repro submit --socket PATH (--job JSON | --op JSON | --file PATH)
              [--retries N] [--timeout S] [--backoff S]
    repro list [schemes|compressors|models|clusters|policies|faults|brains|experiments]
    repro experiments [--only SUBSTR] [--fast] [--jobs N]

``serve`` runs the crash-safe always-on scheduler daemon (write-ahead
journal + snapshots under ``--state-dir``; see ``docs/serve.md``) and
``submit`` is its unix-socket client;
``run`` executes one declarative :class:`~repro.api.config.RunConfig`;
``sched`` simulates a multi-tenant
:class:`~repro.api.config.SchedConfig` scenario (one run per configured
placement policy) — with ``--trace`` the job queue comes from a cluster
trace (``docs/traces.md``) and the payload reports JCT / queue-wait /
slowdown *distributions* instead of per-job rows; ``trace gen`` /
``trace validate`` create and check traces; ``list`` enumerates the
registries (and the experiment harnesses); ``experiments`` delegates to
:mod:`repro.experiments.runner`.  On ``sched`` and ``experiments``,
``--jobs N`` is the width of the :mod:`repro.exec` sweep pool (on
``sched``, ``--set exec.jobs=N`` shorthand): any width but 1 fans the
independent policies / harnesses across CPU cores, bit-identical to the
inline run.  A training step (``run``) always runs inline.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.utils.registry import Registry

LIST_GROUPS = (
    "schemes",
    "compressors",
    "models",
    "clusters",
    "policies",
    "faults",
    "brains",
    "experiments",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of 'Towards Scalable Distributed Training of "
        "Deep Learning on Public Cloud Clusters' — declarative run facade.",
    )
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="execute one declarative run config")
    run_p.add_argument("--config", required=True, help="path to a RunConfig JSON file")
    _add_config_flags(run_p, example="comm.density=0.01")
    # Retired with the process step engine: kept only to fail with one line.
    for flag in ("--backend", "--jobs"):
        run_p.add_argument(flag, dest="retired", help=argparse.SUPPRESS)

    sched_p = sub.add_parser(
        "sched", help="simulate a multi-tenant scheduling scenario"
    )
    sched_p.add_argument(
        "--config", default=None, help="path to a SchedConfig JSON file"
    )
    sched_p.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="replay a cluster trace (.jsonl file or CSV directory, see "
        "docs/traces.md) instead of the config's inline jobs; without "
        "--config the scenario defaults to 16 8-GPU tencent nodes",
    )
    _add_config_flags(sched_p, example="jobs.0.priority=5")
    _add_jobs_flag(sched_p)

    trace_p = sub.add_parser(
        "trace", help="generate or validate cluster traces (docs/traces.md)"
    )
    trace_sub = trace_p.add_subparsers(dest="trace_command")
    gen_p = trace_sub.add_parser(
        "gen", help="generate a seeded synthetic trace"
    )
    gen_p.add_argument(
        "--out", required=True, metavar="PATH",
        help="output path (.jsonl file, or a directory with --format csv)",
    )
    gen_p.add_argument(
        "--num-jobs", type=int, default=1000, metavar="N",
        help="exact job count (default: 1000)",
    )
    gen_p.add_argument(
        "--seed", type=int, default=0, help="generator seed (default: 0)"
    )
    gen_p.add_argument(
        "--duration-hours", type=float, default=24.0, metavar="H",
        help="trace horizon in hours (default: 24)",
    )
    gen_p.add_argument(
        "--payload-fraction", type=float, default=0.0, metavar="F",
        help="fraction of jobs carrying a real training payload "
        "(default: 0 = pure closed-form replay)",
    )
    gen_p.add_argument(
        "--format", choices=("jsonl", "csv"), default="jsonl",
        help="on-disk layout (default: jsonl)",
    )
    val_p = trace_sub.add_parser(
        "validate", help="parse a trace, resolve workloads, print stats"
    )
    val_p.add_argument("path", help="trace path (.jsonl file or CSV directory)")
    val_p.add_argument(
        "--json", action="store_true", help="print the stats as JSON"
    )

    serve_p = sub.add_parser(
        "serve", help="run the crash-safe always-on scheduler daemon"
    )
    serve_p.add_argument(
        "--config", required=True, help="path to a ServeConfig JSON file"
    )
    serve_p.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="durable state directory (journal + snapshots); restarting "
        "against the same directory recovers; default: a fresh temp dir",
    )
    serve_p.add_argument(
        "--script",
        default=None,
        metavar="PATH",
        help="JSON-lines op script to drive the daemon with ('-' = stdin; "
        "the default input mode)",
    )
    serve_p.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="derive the op stream from a cluster trace (tick to each "
        "arrival, submit, final drain)",
    )
    serve_p.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="with --trace: only the first N jobs",
    )
    serve_p.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="serve JSON-lines ops on a unix socket instead of a script "
        "(clients: `repro submit --socket PATH`)",
    )
    serve_p.add_argument(
        "--drill",
        action="store_true",
        help="run the kill-anywhere recovery drill over the op stream: "
        "crash at each injection point, restart, require the recovered "
        "payload byte-identical with zero acknowledged submissions lost",
    )
    serve_p.add_argument(
        "--kill-at",
        action="append",
        default=[],
        metavar="POINT",
        help="injection point(s) like tick:2 / snapshot:1 / append:3 — "
        "with --drill the points to drill; without it, crash the daemon "
        "there (restart with the same --state-dir to recover)",
    )
    serve_p.add_argument(
        "--kill-mode",
        choices=("raise", "sigkill"),
        default="sigkill",
        help="how --kill-at dies: a real SIGKILL (default) or a Python "
        "exception (in-process harnesses)",
    )
    _add_config_flags(serve_p, example="queue_limit=32")

    submit_p = sub.add_parser(
        "submit", help="submit jobs/ops to a running serve daemon"
    )
    submit_p.add_argument(
        "--socket", required=True, metavar="PATH", help="the daemon's unix socket"
    )
    submit_p.add_argument(
        "--job",
        action="append",
        default=[],
        metavar="JSON",
        help="inline job mapping to submit (repeatable), e.g. "
        '\'{"name": "j1", "iterations": 50}\'',
    )
    submit_p.add_argument(
        "--op",
        action="append",
        default=[],
        metavar="JSON",
        help="raw op mapping (repeatable), e.g. '{\"op\": \"tick\"}'",
    )
    submit_p.add_argument(
        "--file",
        default=None,
        metavar="PATH",
        help="JSON-lines file of ops (or bare job mappings, auto-wrapped "
        "in submit ops)",
    )
    submit_p.add_argument(
        "--retries",
        type=int,
        default=5,
        metavar="N",
        help="connect attempts before giving up (default: 5)",
    )
    submit_p.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        metavar="S",
        help="per-op socket timeout in seconds (default: 5)",
    )
    submit_p.add_argument(
        "--backoff",
        type=float,
        default=0.05,
        metavar="S",
        help="base connect-retry backoff in seconds, doubled per attempt "
        "with jitter (default: 0.05)",
    )

    list_p = sub.add_parser("list", help="enumerate registered components")
    list_p.add_argument(
        "group", nargs="?", default=None, choices=LIST_GROUPS,
        help="one group (default: all)",
    )

    exp_p = sub.add_parser("experiments", help="run the paper experiment harnesses")
    exp_p.add_argument("--only", default=None, help="substring filter on experiment names")
    exp_p.add_argument(
        "--fast",
        action="store_true",
        help="trim the expensive sweeps (Fig. 6, Fig. 10, elastic churn)",
    )
    _add_jobs_flag(exp_p)
    return parser


def _add_config_flags(parser: argparse.ArgumentParser, *, example: str) -> None:
    """``--set`` / ``--json`` / ``--out``: shared by run, sched and serve."""
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help=f"override a config entry, e.g. --set {example} (repeatable; "
        "dotted paths; numeric segments index lists; JSON values)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the BENCH-schema JSON payload instead of the table",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH", help="also write the JSON payload here"
    )


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    """``--jobs``: the sweep pool's width.

    On ``sched``, equivalent to ``--set exec.jobs=N`` (and overriding
    it, since it applies last); ``experiments`` has no config file, so
    there it is the only spelling.
    """
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the sweep (1 = inline; 0 = all usable "
        "cores); bit-identical at every width",
    )


def _registry_lines(reg: Registry) -> list[str]:
    lines = []
    for name in reg.available():
        aliases = reg.aliases_of(name)
        suffix = f"  (aliases: {', '.join(aliases)})" if aliases else ""
        lines.append(f"  {name}{suffix}")
    return lines


def _cmd_list(group: str | None) -> int:
    from repro.api import registry
    from repro.brain import BRAINS
    from repro.faults.registry import FAULTS
    from repro.sched.policies import POLICIES

    registries = {
        "schemes": registry.SCHEMES,
        "compressors": registry.COMPRESSORS,
        "models": registry.MODELS,
        "clusters": registry.CLUSTERS,
        "policies": POLICIES,
        "faults": FAULTS,
        "brains": BRAINS,
    }
    groups = (group,) if group else LIST_GROUPS
    for i, name in enumerate(groups):
        if len(groups) > 1:
            print(("" if i == 0 else "\n") + f"{name}:")
        if name == "experiments":
            from repro.experiments.runner import EXPERIMENTS

            for exp_name, _ in EXPERIMENTS:
                print(f"  {exp_name}")
        else:
            print("\n".join(_registry_lines(registries[name])))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    # Everything a user can get wrong fails here (clean exit 2 from
    # main); errors past this point are real bugs and keep their
    # traceback.
    from repro.api.config import RunConfig, apply_overrides
    from repro.api.facade import preflight
    from repro.api.facade import run as run_facade

    try:
        if args.retired is not None:
            raise ValueError(
                "repro run has no --backend/--jobs any more: training steps "
                "run inline; the process pool serves repro sched and repro "
                "experiments"
            )
        config = RunConfig.from_file(args.config)
        if args.overrides:
            config = apply_overrides(config, args.overrides)
        preflight(config)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit_payload(run_facade(config).bench_payload(), args)
    return 0


def _cmd_sched(args: argparse.Namespace) -> int:
    # Same error contract as `run`: user mistakes exit 2 with one line,
    # anything past validation is a real bug and keeps its traceback.
    from repro.api.config import SchedConfig, apply_overrides
    from repro.api.facade import run_sched
    from repro.sched import payload_for_reports
    from repro.sched.traces import payload_for_trace_reports

    try:
        if args.config is None and args.trace is None:
            raise ValueError("sched needs --config and/or --trace")
        if args.config is not None:
            config = SchedConfig.from_file(args.config)
        else:
            # Trace-only invocation: a production-ish default scenario.
            config = SchedConfig.from_dict(
                {
                    "name": "trace",
                    "cluster": {
                        "instance": "tencent",
                        "num_nodes": 16,
                        "gpus_per_node": 8,
                    },
                    "trace": args.trace,
                },
                validate=False,
            )
        if args.trace is not None:
            config = dataclasses.replace(config, trace=args.trace, jobs=None)
        overrides = list(args.overrides)
        if args.jobs is not None:
            overrides.append(f"exec.jobs={args.jobs}")
        if overrides:
            config = apply_overrides(config, overrides)
        config.validate()
        reports = run_sched(config)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if config.trace is not None:
        payload = payload_for_trace_reports(
            list(reports.values()),
            bench=f"trace_{config.name}",
            trace=config.trace,
        )
    else:
        payload = payload_for_reports(
            list(reports.values()), bench=f"sched_{config.name}"
        )
    _emit_payload(payload, args)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    # Same error contract as `run`/`sched`: malformed input exits 2 with
    # one line (TraceError subclasses ValueError).
    from repro.sched.traces import (
        SyntheticTraceConfig,
        generate_trace,
        load_trace,
        trace_stats,
        trace_to_specs,
        write_trace,
        write_trace_csv,
    )

    if args.trace_command == "gen":
        try:
            config = SyntheticTraceConfig(
                num_jobs=args.num_jobs,
                seed=args.seed,
                duration_seconds=args.duration_hours * 3600.0,
                payload_fraction=args.payload_fraction,
            )
            trace = generate_trace(config)
            if args.format == "csv":
                out = write_trace_csv(trace, args.out)
            else:
                out = write_trace(trace, args.out)
        except (ValueError, KeyError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(
            f"wrote {len(trace.jobs)} jobs "
            f"({sum(1 for t in trace.tasks if t.payload is not None)} with "
            f"payloads, seed {args.seed}) to {out}"
        )
        return 0
    if args.trace_command == "validate":
        try:
            trace = load_trace(args.path)
            specs = trace_to_specs(trace)  # resolves workloads/schemes
            stats = trace_stats(trace)
        except (ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
        else:
            for key, value in stats.items():
                print(f"{key}: {value}")
            print(f"ok: {len(specs)} schedulable jobs")
        return 0
    print("error: trace needs a subcommand (gen | validate)", file=sys.stderr)
    return 2


def _serve_ops(args: argparse.Namespace) -> list[dict]:
    """The op stream for a scripted/drilled serve invocation."""
    from repro.serve import ops_from_script, ops_from_trace

    if args.trace is not None and args.script is not None:
        raise ValueError("--trace and --script are mutually exclusive")
    if args.trace is not None:
        return ops_from_trace(args.trace, limit=args.limit)
    if args.script is not None and args.script != "-":
        path = pathlib.Path(args.script)
        if not path.exists():
            raise ValueError(f"ops script not found: {path}")
        return ops_from_script(path.read_text().splitlines())
    return ops_from_script(sys.stdin.read().splitlines())


def _emit_payload(payload: dict, args: argparse.Namespace) -> None:
    """The --json/--out emission shared by run, sched and serve."""
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(payload["text"], end="")
    if args.out:
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        if not args.json:
            print(f"[payload written to {out}]")


def _cmd_serve(args: argparse.Namespace) -> int:
    # Same error contract as `run`/`sched`: user mistakes (bad config,
    # malformed ops, rejected submissions in scripted mode) exit 2 with
    # one line; anything past that is a real bug and keeps its traceback.
    import signal
    import tempfile

    from repro.api.config import ServeConfig, apply_overrides
    from repro.serve import (
        DEFAULT_POINTS,
        RecoveryDrill,
        ServeRuntime,
        parse_kill_spec,
        run_script,
        serve_socket,
    )
    from repro.serve.journal import canonical_json

    try:
        config = ServeConfig.from_file(args.config)
        if args.overrides:
            config = apply_overrides(config, args.overrides)
        for point in args.kill_at:
            parse_kill_spec(point)
        if args.socket is not None and (args.drill or args.kill_at):
            raise ValueError("--socket cannot be combined with --drill/--kill-at")
        if len(args.kill_at) > 1 and not args.drill:
            raise ValueError("without --drill, give at most one --kill-at point")
        state_dir = args.state_dir or tempfile.mkdtemp(prefix="repro-serve-")

        if args.drill:
            ops = _serve_ops(args)
            points = tuple(args.kill_at) or DEFAULT_POINTS
            drill = RecoveryDrill(config, ops, work_dir=state_dir, points=points)
            result = drill.run()
        else:
            runtime = ServeRuntime(
                config,
                state_dir,
                kill_plan=(args.kill_at[0] if args.kill_at else None),
                kill_mode=args.kill_mode,
            )
            try:
                previous = signal.signal(signal.SIGTERM, runtime.request_drain)
            except ValueError:  # pragma: no cover - non-main-thread harness
                previous = None
            try:
                if args.socket is not None:
                    serve_socket(runtime, args.socket)
                else:
                    run_script(runtime, (canonical_json(op) for op in _serve_ops(args)))
            finally:
                if previous is not None:
                    signal.signal(signal.SIGTERM, previous)
            payload = runtime.finalize()
            runtime.close()
            _emit_payload(payload, args)
            return 0
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Drill output: one verdict line per injection point, machine tail.
    for outcome in result["points"]:
        status = "ok" if outcome["payload_match"] and not outcome["lost_acked"] else "FAIL"
        print(
            f"{status}: kill at {outcome['point']}: payload_match="
            f"{outcome['payload_match']} lost_acked={outcome['lost_acked']} "
            f"replayed={outcome['replayed']} dedup={outcome['deduplicated']} "
            f"recovery_s={outcome['recovery_s']:.3f}"
        )
    print(
        f"drill: {len(result['points'])} point(s), all_match={result['all_match']}, "
        f"lost_acked_total={result['lost_acked_total']}"
    )
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    if args.out:
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        print(f"[drill report written to {out}]")
    return 0 if result["all_match"] and result["lost_acked_total"] == 0 else 1


def _cmd_submit(args: argparse.Namespace) -> int:
    # Client-side user errors (bad JSON, unreachable daemon, rejected
    # submissions) all exit 2 with one line.
    from repro.serve import SubmitError, send_ops

    try:
        ops: list[dict] = []
        for raw in args.job:
            try:
                job = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ValueError(f"--job is not valid JSON: {exc}") from exc
            if not isinstance(job, dict):
                raise ValueError(f"--job must be a JSON object, got {raw!r}")
            ops.append({"op": "submit", "job": job})
        if args.file is not None:
            path = pathlib.Path(args.file)
            if not path.exists():
                raise ValueError(f"ops file not found: {path}")
            for lineno, line in enumerate(path.read_text().splitlines(), start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"{path} line {lineno}: invalid JSON: {exc}"
                    ) from exc
                if not isinstance(entry, dict):
                    raise ValueError(
                        f"{path} line {lineno}: each line must be a JSON object"
                    )
                # Bare job mappings are sugar for submit ops.
                ops.append(entry if "op" in entry else {"op": "submit", "job": entry})
        for raw in args.op:
            try:
                op = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ValueError(f"--op is not valid JSON: {exc}") from exc
            if not isinstance(op, dict):
                raise ValueError(f"--op must be a JSON object, got {raw!r}")
            ops.append(op)
        if not ops:
            raise ValueError("submit needs at least one --job, --op, or --file")
        acks = send_ops(
            args.socket,
            ops,
            retries=args.retries,
            backoff=args.backoff,
            timeout=args.timeout,
        )
        for ack in acks:
            if not ack.get("ok"):
                raise ValueError(ack.get("error", "op rejected"))
    except (SubmitError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for ack in acks:
        print(json.dumps(ack, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "sched":
        return _cmd_sched(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "list":
        return _cmd_list(args.group)
    if args.command == "experiments":
        from repro.experiments.runner import main as runner_main

        runner_argv = []
        if args.only:
            runner_argv += ["--only", args.only]
        if args.fast:
            runner_argv += ["--fast"]
        if args.jobs is not None:
            runner_argv += ["--jobs", str(args.jobs)]
        return runner_main(runner_argv)
    return 0  # pragma: no cover - unreachable


if __name__ == "__main__":
    sys.exit(main())
