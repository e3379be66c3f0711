"""Collect ``results/BENCH_*.json`` payloads into one trajectory file.

Every benchmark emits a schema-checked ``BENCH_<name>.json`` (see
:mod:`repro.utils.bench`).  This tool folds the current crop into
``results/TRAJECTORY.json`` — a per-bench series keyed by commit — so
benchmark metrics can be tracked across the repository's history:

* per bench and commit, the structured ``columns``/``rows`` table is
  stored verbatim (these tables are small), plus a flat ``metrics``
  dict (column -> mean over numeric cells) for quick dashboards;
* re-running on the same commit overwrites that commit's entry
  (idempotent), a new commit appends to the ordered ``commits`` list;
* unstructured payloads contribute only their metadata.

Usage::

    python benchmarks/trajectory.py [--results-dir results]
        [--out results/TRAJECTORY.json] [--commit SHA] [--include-runs]

The committed baselines the regression gate compares against
(``BENCH_<bench>.json`` for every bench in ``check_regression.GATES``)
are never folded in: they were measured at an older commit, and a stale
checked-in measurement must not be stamped onto the current one.
Their fresh-measurement twins (``BENCH_*_run.json``) are skipped by
default too; CI passes ``--include-runs`` after a gate job so the run
it just measured joins the series, and uploads the result as an
artifact (committing the file is optional: the series merges).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

from check_regression import GATES
from repro.utils.bench import BENCH_SCHEMA_VERSION

#: Bump when the trajectory envelope changes shape.
TRAJECTORY_SCHEMA_VERSION = 1

#: Fresh-measurement payloads (skipped unless ``--include-runs``) end so.
RUN_SUFFIX = "_run.json"

#: Committed baselines: exactly the gated benches, never folded in.
BASELINE_NAMES = frozenset(f"BENCH_{bench}.json" for bench in GATES)


def current_commit(repo_root: pathlib.Path) -> str:
    """The current git commit (short), or ``"unknown"`` outside a repo."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=repo_root,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if proc.returncode != 0:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def numeric_means(columns: list, rows: list) -> dict:
    """Mean of every column's numeric cells (bool excluded)."""
    metrics: dict[str, float] = {}
    for i, column in enumerate(columns):
        values = [
            row[i]
            for row in rows
            if i < len(row)
            and isinstance(row[i], (int, float))
            and not isinstance(row[i], bool)
        ]
        if values:
            metrics[str(column)] = sum(values) / len(values)
    return metrics


def bench_entry(payload: dict) -> dict:
    """The per-commit trajectory record of one BENCH payload."""
    entry: dict = {"structured": bool(payload.get("structured"))}
    if payload.get("structured"):
        columns = payload.get("columns", [])
        rows = payload.get("rows", [])
        entry["columns"] = columns
        entry["rows"] = rows
        entry["metrics"] = numeric_means(columns, rows)
    if payload.get("meta"):
        entry["meta"] = payload["meta"]
    return entry


def collect(
    results_dir: pathlib.Path,
    out_path: pathlib.Path,
    commit: str,
    *,
    include_runs: bool = False,
) -> dict:
    """Merge the current BENCH payloads into the trajectory at ``out_path``.

    Committed baselines (:data:`BASELINE_NAMES`) are never stamped onto
    ``commit``; ``*_run`` fresh-measurement payloads only with
    ``include_runs``.
    """
    paths = [
        path
        for path in sorted(results_dir.glob("BENCH_*.json"))
        if path.name not in BASELINE_NAMES
        and (include_runs or not path.name.endswith(RUN_SUFFIX))
    ]
    if not paths:
        raise SystemExit(f"error: no BENCH_*.json files under {results_dir}")

    if out_path.exists():
        trajectory = json.loads(out_path.read_text())
        if trajectory.get("schema_version") != TRAJECTORY_SCHEMA_VERSION:
            raise SystemExit(
                f"error: {out_path} has schema_version "
                f"{trajectory.get('schema_version')!r}, expected "
                f"{TRAJECTORY_SCHEMA_VERSION} (delete it to restart the series)"
            )
    else:
        trajectory = {
            "schema_version": TRAJECTORY_SCHEMA_VERSION,
            "commits": [],
            "benches": {},
        }

    if commit not in trajectory["commits"]:
        trajectory["commits"].append(commit)

    collected = 0
    for path in paths:
        payload = json.loads(path.read_text())
        name = payload.get("bench")
        if not name or payload.get("schema_version") != BENCH_SCHEMA_VERSION:
            print(
                f"skipping {path.name}: not a schema-{BENCH_SCHEMA_VERSION} "
                "BENCH payload"
            )
            continue
        series = trajectory["benches"].setdefault(name, {})
        series[commit] = bench_entry(payload)
        collected += 1

    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(trajectory, indent=2, sort_keys=True) + "\n")
    print(
        f"collected {collected} bench payload(s) at commit {commit} -> {out_path} "
        f"({len(trajectory['benches'])} bench series, "
        f"{len(trajectory['commits'])} commit(s))"
    )
    return trajectory


def main(argv: list[str] | None = None) -> int:
    repo_root = pathlib.Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results-dir",
        default=str(repo_root / "results"),
        help="directory holding BENCH_*.json payloads (default: results/)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="trajectory file to merge into (default: <results-dir>/TRAJECTORY.json)",
    )
    parser.add_argument(
        "--commit",
        default=None,
        help="commit id to key this crop under (default: git rev-parse --short HEAD)",
    )
    parser.add_argument(
        "--include-runs",
        action="store_true",
        help="also fold BENCH_*_run.json fresh-measurement payloads in "
        "(skipped by default: they shadow their committed baselines)",
    )
    args = parser.parse_args(argv)
    results_dir = pathlib.Path(args.results_dir)
    out_path = (
        pathlib.Path(args.out) if args.out else results_dir / "TRAJECTORY.json"
    )
    commit = args.commit or current_commit(repo_root)
    collect(results_dir, out_path, commit, include_runs=args.include_runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
