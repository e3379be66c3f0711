"""The regression gate: a fresh ``BENCH_<bench>_run.json`` vs its committed baseline.

    python benchmarks/check_regression.py <bench> [--baseline P] [--current P]

``<bench>`` is a key of :data:`GATES`; the paths default to
``results/BENCH_<bench>.json`` (committed, never written by a bench run —
updating it is a deliberate ``cp`` after a representative run) and
``results/BENCH_<bench>_run.json`` (what ``benchmarks/bench_<bench>.py``
just wrote).  Both payloads pass the envelope schema and the bench's
required-meta check before any gate runs.  Every gate prints one line:
``ok:``, ``FAIL:`` (a **hard** row broke: exit 1) or ``note:`` (an
**advisory** row broke, or a row does not apply to this host: exit 0).

Hard rows are host-independent: determinism flags, pinned digests,
simulated scorecards, and *ratios* whose two sides were measured on the
same machine in the same run.  Absolute wall-clock numbers do not
transfer between hosts, so drift in them is advisory; the few absolute
hard limits (a 10k-job day within 60 s, recovery within 2 s) sit far
above any healthy run and catch algorithmic rot, not slow runners.

What differs between benches is the table; the bench tests assert the
same rows on their in-memory payload through :func:`assert_gates`, so a
rule and its threshold are written once.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Callable, NamedTuple

from repro.utils.bench import validate_bench_payload

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"

HARD, ADVISORY = "hard", "advisory"

# Every threshold CI enforces, written once.
#: jobs=4 sweep ratio floor, armed on hosts with >= EXEC_GATE_CORES
#: usable cores (fewer cannot physically deliver it).
EXEC_MIN_SPEEDUP = 1.5
EXEC_GATE_CORES = 4
EXEC_MAX_DROP = 0.30
#: The "replay a day on a laptop" bar, and a floor set well below any
#: real host (an O(queue) scan resurfacing trips it, a slow runner not).
TRACE_MAX_SECONDS = 60.0
TRACE_MIN_JOBS_PER_SEC = 100.0
TRACE_NOTE_DROP = 0.5
#: A scheme keeping less of its fault-free goodput than this under the
#: storm has broken recovery, not slow recovery (the matrix sits ~0.063).
MIN_GOODPUT_RATIO = 0.05
GOODPUT_NOTE_DROP = 0.25
#: ~1000x a healthy restart of the day-of-ops state; a lost-snapshot
#: path that degrades every restart to replay-from-genesis exceeds it.
SERVE_MAX_RECOVERY_S = 2.0
SERVE_NOTE_SLOWDOWN = 10.0

#: ``check(current, baseline) -> (verdict, detail)``; verdict ``None``
#: means the row does not apply to this host.
Check = Callable[[dict, dict], "tuple[bool | None, str]"]


class Gate(NamedTuple):
    label: str
    level: str  # HARD | ADVISORY
    check: Check


class Bench(NamedTuple):
    #: Meta keys the rows read; a payload lacking one is rejected up front.
    meta_keys: tuple[str, ...]
    gates: tuple[Gate, ...]


def table(payload: dict, key: str) -> dict:
    """``{row[key]: {column: cell}}`` of a columns/rows table."""
    columns = payload["columns"]
    return {row[columns.index(key)]: dict(zip(columns, row)) for row in payload["rows"]}


# -- plain comparisons (the data rows) ---------------------------------------


def is_true(key: str, claim: str) -> Check:
    return lambda cur, base: (
        cur["meta"][key] is True,
        f"{claim}: meta.{key} is {cur['meta'][key]!r}",
    )


def at_most(key: str, ceiling: float) -> Check:
    return lambda cur, base: (
        cur["meta"][key] <= ceiling,
        f"meta.{key} {cur['meta'][key]} (ceiling {ceiling})",
    )


def at_least(key: str, floor: float) -> Check:
    return lambda cur, base: (
        cur["meta"][key] >= floor,
        f"meta.{key} {cur['meta'][key]} (floor {floor})",
    )


def pinned(*path: str) -> Check:
    """Every committed digest under ``meta.<path>`` reproduced exactly."""

    def check(cur, base):
        got, want = cur["meta"], base["meta"]
        for key in path:
            got, want = got[key], want[key]
        if not isinstance(want, dict):
            return got == want, f"{got} (committed {want})"
        drifted = sorted(k for k in want if got.get(k) != want[k])
        return not drifted, (
            f"drifted or missing: {drifted} — update the committed baseline "
            "deliberately if the replay was meant to change"
            if drifted
            else f"{len(want)} digests match the baseline"
        )

    return check


def near_baseline(key: str, max_drop: float) -> Check:
    def check(cur, base):
        floor = (1.0 - max_drop) * base["meta"][key]
        return cur["meta"][key] >= floor, (
            f"meta.{key} {cur['meta'][key]} vs baseline {base['meta'][key]} "
            f"(floor {floor:.3f})"
        )

    return check


def rows_near_baseline(key: str, column: str, max_drop: float) -> Check:
    def check(cur, base):
        was = {name: row[column] for name, row in table(base, key).items()}
        fell = {
            name: (row[column], was[name])
            for name, row in table(cur, key).items()
            if was.get(name) and row[column] is not None
            and row[column] < (1.0 - max_drop) * was[name]
        }
        return not fell, (
            f"{column} fell more than {max_drop:.0%} (now, baseline): {fell}"
            if fell
            else f"{column} within {max_drop:.0%} of baseline"
        )

    return check


# -- cross-row rules (named predicates) ---------------------------------------


def exec_floor(cur, base):
    cores, ratio = cur["meta"]["cpu_count"], cur["meta"]["sweep_speedup_jobs4"]
    if cores < EXEC_GATE_CORES:
        return None, (
            f"only {cores} usable core(s) (< {EXEC_GATE_CORES}); floor not "
            f"applicable, measured {ratio:.2f}x"
        )
    return ratio >= EXEC_MIN_SPEEDUP, (
        f"jobs=4 sweep speedup {ratio:.2f}x on {cores} cores "
        f"(floor {EXEC_MIN_SPEEDUP}x)"
    )


def exec_drift(cur, base):
    cores = (base["meta"]["cpu_count"], cur["meta"]["cpu_count"])
    if min(cores) < EXEC_GATE_CORES:
        return None, (
            f"baseline measured on {cores[0]} core(s), current on {cores[1]}; "
            "ratios not comparable"
        )
    return near_baseline("sweep_speedup_jobs4", EXEC_MAX_DROP)(cur, base)


def storm_recovered(cur, base):
    bad = sorted(
        scheme
        for scheme, row in table(cur, "scheme").items()
        if row["injected"] < 1
        or row["recovered"] != row["injected"]
        or row["absorbed"]
        or row["corrupt_checkpoints"] < 1
    )
    return not bad, (
        f"incomplete recovery: {bad}"
        if bad
        else f"all {len(cur['rows'])} schemes recovered from every injected "
        "fault (corrupted checkpoint included)"
    )


def goodput_floor(cur, base):
    low = {
        scheme: row["goodput_ratio"]
        for scheme, row in table(cur, "scheme").items()
        if row["goodput_ratio"] is None or row["goodput_ratio"] < MIN_GOODPUT_RATIO
    }
    return not low, (
        f"goodput ratio below the {MIN_GOODPUT_RATIO} floor: {low}"
        if low
        else f"every scheme kept >= {MIN_GOODPUT_RATIO} of its goodput under the storm"
    )


def fault_aware_wins(cur, base):
    rows = table(cur["meta"]["policy_drill"], "policy")
    blind = sorted(policy for policy in rows if policy != "fault-aware")
    if "fault-aware" not in rows or not blind:
        return False, "policy drill lacks fault-aware vs fault-blind rows"
    aware = rows["fault-aware"]["storm_goodput"]
    losers = [p for p in blind if not aware > rows[p]["storm_goodput"]]
    calm = sorted(p for p, row in rows.items() if row["quarantines"] < 1)
    if losers or calm:
        return False, (
            f"fault-aware goodput {aware} does not beat {losers}; "
            f"flap train never quarantined under {calm}"
        )
    return True, (
        f"fault-aware goodput {aware} beats all {len(blind)} fault-blind "
        "policies and the flap train tripped the health ledger"
    )


def brain_beats_static(cur, base):
    rows = table(cur, "brain")
    if not {"static", "health-migrate"} <= set(rows):
        return False, "drill matrix lacks the static/health-migrate pair"
    static, brain = rows["static"], rows["health-migrate"]
    lost = [
        column
        for column, won in (
            ("storm_goodput", brain["storm_goodput"] > static["storm_goodput"]),
            ("mean_jct_s", brain["mean_jct_s"] < static["mean_jct_s"]),
            ("usd_per_kiter", brain["usd_per_kiter"] < static["usd_per_kiter"]),
            ("fairness", brain["fairness"] >= static["fairness"]),
        )
        if not won
    ]
    return not lost, (
        f"health-migrate does not beat static on {lost}"
        if lost
        else f"goodput {brain['storm_goodput']} > {static['storm_goodput']}, "
        "JCT and $/kiter lower, fairness no worse"
    )


def brain_migrated(cur, base):
    migrations = table(cur, "brain").get("health-migrate", {}).get("migrations", 0)
    return migrations >= 1, (
        f"health-migrate applied {migrations} migration(s) — a win with an "
        "empty decision log is not attributable to the brain"
    )


def kill_anywhere(cur, base):
    rows = table(cur, "point")
    bad = sorted(
        point for point, row in rows.items()
        if not row["payload_match"] or row["lost_acked"]
    )
    lost = cur["meta"]["lost_acked_total"]
    if bad or cur["meta"]["all_match"] is not True or lost:
        return False, (
            f"recovery changed payload bytes or lost acknowledged work at "
            f"{bad} (all_match={cur['meta']['all_match']}, lost_acked_total={lost})"
        )
    return True, (
        f"{len(rows)} injection point(s) recovered byte-identically with zero "
        "acknowledged submissions lost"
    )


def recovery_drift(cur, base):
    worst, was = cur["meta"]["max_recovery_s"], base["meta"]["max_recovery_s"]
    return worst <= SERVE_NOTE_SLOWDOWN * was, (
        f"worst-case recovery {worst * 1000:.1f} ms vs baseline "
        f"{was * 1000:.1f} ms (note beyond {SERVE_NOTE_SLOWDOWN:.0f}x)"
    )


# -- the table ------------------------------------------------------------------

GATES: dict[str, Bench] = {
    "exec_scaling": Bench(
        ("cpu_count", "parity_ok", "sweep_speedup_jobs4"),
        (
            Gate("parallel sweep parity", HARD,
                 is_true("parity_ok", "parallel sweep bit-identical to serial")),
            Gate("jobs=4 sweep speedup floor", HARD, exec_floor),
            Gate("sweep speedup vs baseline", HARD, exec_drift),
        ),
    ),
    "trace_replay": Bench(
        ("cpu_count", "determinism_ok", "jobs_per_sec_10k", "seconds_10k"),
        (
            Gate("replay determinism", HARD,
                 is_true("determinism_ok", "repeat replay bit-identical")),
            Gate("10k-job day wall clock", HARD,
                 at_most("seconds_10k", TRACE_MAX_SECONDS)),
            Gate("10k-job throughput floor", HARD,
                 at_least("jobs_per_sec_10k", TRACE_MIN_JOBS_PER_SEC)),
            Gate("jobs/s vs baseline", ADVISORY,
                 near_baseline("jobs_per_sec_10k", TRACE_NOTE_DROP)),
        ),
    ),
    "fault_drills": Bench(
        ("deterministic", "schemes", "digests", "policy_drill"),
        (
            Gate("drill determinism", HARD,
                 is_true("deterministic", "serial and process-pool payloads bit-identical")),
            Gate("per-scheme fault-log digests", HARD, pinned("digests")),
            Gate("storm recovery", HARD, storm_recovered),
            Gate("goodput floor under the storm", HARD, goodput_floor),
            Gate("fault-aware beats fault-blind", HARD, fault_aware_wins),
            Gate("per-policy gray-storm digests", HARD, pinned("policy_drill", "digests")),
            Gate("goodput ratio vs baseline", ADVISORY,
                 rows_near_baseline("scheme", "goodput_ratio", GOODPUT_NOTE_DROP)),
        ),
    ),
    "brain": Bench(
        ("deterministic", "brains", "digests"),
        (
            Gate("drill determinism", HARD,
                 is_true("deterministic", "serial and process-pool payloads bit-identical")),
            Gate("per-brain decision/fault-log digests", HARD, pinned("digests")),
            Gate("health-migrate beats static", HARD, brain_beats_static),
            Gate("health-migrate migrated", HARD, brain_migrated),
            Gate("goodput ratio vs baseline", ADVISORY,
                 rows_near_baseline("brain", "goodput_ratio", GOODPUT_NOTE_DROP)),
        ),
    ),
    "serve": Bench(
        ("deterministic", "reference_digest", "all_match", "lost_acked_total",
         "max_recovery_s"),
        (
            Gate("kill-anywhere recovery", HARD, kill_anywhere),
            Gate("reference determinism", HARD,
                 is_true("deterministic", "independent uninterrupted runs bit-identical")),
            Gate("reference payload digest", HARD, pinned("reference_digest")),
            Gate("worst-case recovery ceiling", HARD,
                 at_most("max_recovery_s", SERVE_MAX_RECOVERY_S)),
            Gate("recovery time vs baseline", ADVISORY, recovery_drift),
        ),
    ),
}


# -- one loader, one printer, one exit rule ----------------------------------------


def load(path: pathlib.Path, bench: str) -> dict:
    """A schema-valid structured payload carrying the bench's meta keys."""
    try:
        payload = validate_bench_payload(json.loads(path.read_text()))
    except (OSError, ValueError) as exc:
        raise SystemExit(f"{path}: {exc}") from None
    missing = [key for key in GATES[bench].meta_keys if key not in payload.get("meta", {})]
    if missing or not payload["structured"]:
        raise SystemExit(
            f"{path}: not a {bench} payload (structured, with meta "
            f"{list(GATES[bench].meta_keys)}); lacks {missing or 'rows'}"
        )
    return payload


def evaluate(bench: str, current: dict, baseline: dict) -> list[tuple[Gate, bool | None, str]]:
    return [(gate, *gate.check(current, baseline)) for gate in GATES[bench].gates]


def report(bench: str, results) -> int:
    failed = []
    for gate, verdict, detail in results:
        if verdict:
            status = "ok"
        elif verdict is None or gate.level == ADVISORY:
            status = "note"
        else:
            status = "FAIL"
            failed.append(gate.label)
        print(f"{status}: {gate.label}: {detail}")
    if failed:
        print(f"FAIL: {bench} gate: {failed}")
        return 1
    print(f"ok: {bench} within the gate")
    return 0


def assert_gates(bench: str, payload: dict, *labels: str) -> None:
    """The named rows hold for an in-memory payload (bench-test entry)."""
    unknown = set(labels) - {gate.label for gate in GATES[bench].gates}
    assert not unknown, f"no such {bench} gate(s): {sorted(unknown)}"
    baseline = load(RESULTS / f"BENCH_{bench}.json", bench)
    failed = [
        f"{gate.label}: {detail}"
        for gate, verdict, detail in evaluate(bench, payload, baseline)
        if gate.label in labels and verdict is False
    ]
    assert not failed, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench", choices=sorted(GATES))
    parser.add_argument("--baseline", type=pathlib.Path,
                        help="committed payload (default results/BENCH_<bench>.json)")
    parser.add_argument("--current", type=pathlib.Path,
                        help="fresh payload (default results/BENCH_<bench>_run.json)")
    args = parser.parse_args(argv)
    baseline = load(args.baseline or RESULTS / f"BENCH_{args.bench}.json", args.bench)
    current = load(args.current or RESULTS / f"BENCH_{args.bench}_run.json", args.bench)
    return report(args.bench, evaluate(args.bench, current, baseline))


if __name__ == "__main__":
    sys.exit(main())
