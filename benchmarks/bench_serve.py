"""Serve daemon: kill-anywhere recovery drill + payload determinism.

Runs the committed day-of-ops script (``examples/serve/day_ops.jsonl``
— submissions, ticks, an explicit snapshot, a drain — against the
``serve_smoke`` config's fault plan and health-migrate brain) through
the :class:`repro.serve.drill.RecoveryDrill` matrix: one uninterrupted
reference run pinning the final BENCH payload bytes, then a crash at
each seeded injection point — mid-tick, mid-snapshot-write,
mid-journal-append — with restart, at-least-once resend, and a
byte-compare of the recovered payload.

The gates this bench feeds (hard in CI via
``check_regression.py serve``):

* **kill-anywhere** — every injection point recovers to a
  byte-identical payload with zero acknowledged submissions lost;
* **recovery determinism** — a second, independent reference run
  produces the same payload bytes, and the payload digest is pinned
  against the committed ``results/BENCH_serve.json``;
* **recovery latency** — worst-case restart cost (journal repair +
  snapshot load + replay) stays under a wall-clock ceiling.

Emits ``results/BENCH_serve_run.json``; the *committed* baseline lives
at ``results/BENCH_serve.json`` and is never written by a bench run
(updating it is a deliberate ``cp`` after a representative run).
"""

import pathlib
import shutil
import tempfile

import pytest
from check_regression import assert_gates

from repro.api.config import ServeConfig
from repro.serve.drill import DEFAULT_POINTS, RecoveryDrill, ops_from_script

REPO = pathlib.Path(__file__).resolve().parent.parent
CONFIG_PATH = REPO / "examples" / "configs" / "serve_smoke.json"
OPS_PATH = REPO / "examples" / "serve" / "day_ops.jsonl"

COLUMNS = (
    "point",
    "acked_before_crash",
    "resent",
    "deduplicated",
    "replayed",
    "lost_acked",
    "payload_match",
    "torn_bytes_dropped",
    "snapshot_slot",
    "recovery_s",
)


def _ops():
    return ops_from_script(OPS_PATH.read_text().splitlines())


@pytest.fixture(scope="module")
def serve_drill(save_result):
    config = ServeConfig.from_file(CONFIG_PATH)
    work = tempfile.mkdtemp(prefix="bench-serve-")
    try:
        drill = RecoveryDrill(config, _ops(), work_dir=work)
        result = drill.run()
        # Independent second reference run: same bytes or the daemon is
        # not deterministic in its inputs.
        again = RecoveryDrill(config, _ops(), work_dir=f"{work}-again")
        again.run_reference()
        deterministic = again.reference_bytes == drill.reference_bytes
        shutil.rmtree(f"{work}-again", ignore_errors=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rows = [
        [
            p["point"],
            p["acked_before_crash"],
            p["resent"],
            p["deduplicated"],
            p["replayed"],
            p["lost_acked"],
            p["payload_match"],
            p["torn_bytes_dropped"],
            p["snapshot_slot"],
            round(p["recovery_s"], 6),
        ]
        for p in result["points"]
    ]
    widths = [max(len(c), 14) for c in COLUMNS]
    lines = ["  ".join(c.ljust(w) for c, w in zip(COLUMNS, widths))]
    for row in rows:
        lines.append("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    payload = save_result(
        "serve_run",
        "\n".join(lines),
        columns=list(COLUMNS),
        rows=rows,
        meta={
            "config": CONFIG_PATH.name,
            "seed": config.seed,
            "ops": result["ops"],
            "points": list(DEFAULT_POINTS),
            "all_match": result["all_match"],
            "lost_acked_total": result["lost_acked_total"],
            "max_recovery_s": round(result["max_recovery_s"], 6),
            "reference_digest": result["reference_digest"],
            "deterministic": deterministic,
        },
    )
    return {"result": result, "payload": payload}


def test_bench_serve_kill_anywhere(benchmark, serve_drill):
    """Every injection point recovers byte-identically, losing nothing."""

    def check():
        assert_gates("serve", serve_drill["payload"], "kill-anywhere recovery")
        return True

    assert benchmark(check)


def test_bench_serve_covers_every_kill_kind(benchmark, serve_drill):
    """Mid-tick, mid-snapshot, and mid-append each fire at least once."""

    def check():
        points = [p["point"] for p in serve_drill["result"]["points"]]
        assert points == list(DEFAULT_POINTS)
        kinds = {point.split(":")[0] for point in points}
        assert kinds == {"tick", "snapshot", "append"}
        # The append kill must actually tear the journal tail, and the
        # tick kill must force a journaled-but-unapplied replay.
        by_kind = {p["point"].split(":")[0]: p for p in serve_drill["result"]["points"]}
        assert by_kind["append"]["torn_bytes_dropped"] > 0
        assert by_kind["tick"]["replayed"] >= 1
        return True

    assert benchmark(check)


def test_bench_serve_determinism(benchmark, serve_drill):
    """Two independent uninterrupted runs produce identical payload bytes."""

    def check():
        assert_gates("serve", serve_drill["payload"], "reference determinism")
        assert serve_drill["result"]["reference_digest"]
        return True

    assert benchmark(check)


def test_bench_serve_recovery_bounded(benchmark, serve_drill):
    """Worst-case restart cost stays under the wall-clock ceiling."""

    def check():
        assert_gates("serve", serve_drill["payload"], "worst-case recovery ceiling")
        return True

    assert benchmark(check)
