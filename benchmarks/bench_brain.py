"""Autotuning brain: gray-storm scorecard + decision-replay determinism.

Replays the committed gray storm (:data:`repro.faults.drill
.GRAY_STORM_EVENTS`) through the multi-tenant scheduler under the
``fault-aware`` placement policy once per registered brain — ``static``
(placement-time health awareness only, the no-brain baseline),
``throughput`` (model-driven rescale), and ``health-migrate`` (health
repair + rescale) — and scores each on goodput under the storm, mean
JCT, finish-time fairness, and $/kilo-iteration.  The headline gate:
``health-migrate`` must strictly beat the static fault-aware baseline
on goodput, JCT *and* $/kiter, with fairness no worse — online
re-planning has to pay even when placement is already health-aware.

Determinism is the other gate: the whole drill matrix is produced twice
— serially and through a 2-worker process pool — and the two BENCH
payloads (rows, decision logs, digests) must match bit for bit.  Brain
decisions are pure functions of the observation and every timestamp is
virtual seconds, so this holds on any host at any ``--jobs`` width.

Emits ``results/BENCH_brain_run.json``; the *committed* baseline lives
at ``results/BENCH_brain.json`` and is never written by a bench run
(updating it is a deliberate ``cp`` after a representative run).  The
CI ``brain-smoke`` job gates fresh runs against it via
``check_regression.py brain``.
"""

import pytest
from check_regression import assert_gates, table

from repro.brain.drill import BRAIN_DRILL_BRAINS, brain_drills_payload
from repro.exec.sweeper import ParallelSweeper
from repro.utils.eventlog import canonical_json

SEED = 7
POOL_JOBS = 2


@pytest.fixture(scope="module")
def drills(save_result):
    serial = brain_drills_payload(seed=SEED)
    pooled = brain_drills_payload(
        seed=SEED, sweeper=ParallelSweeper("process", jobs=POOL_JOBS)
    )
    deterministic = canonical_json(serial) == canonical_json(pooled)

    return save_result(
        "brain_run",
        serial["text"],
        columns=serial["columns"],
        rows=serial["rows"],
        meta={
            **serial["meta"],
            "deterministic": deterministic,
            "pool_jobs": POOL_JOBS,
        },
    )


def test_bench_brain_determinism(benchmark, drills):
    """Serial and process-pool brain matrices match bit for bit."""

    def check():
        assert_gates("brain", drills, "drill determinism")
        return True

    assert benchmark(check)


def test_bench_brain_covers_every_builtin(benchmark, drills):
    """One gray-storm run per built-in brain, static baseline included."""

    def check():
        assert drills["meta"]["brains"] == list(BRAIN_DRILL_BRAINS)
        assert len(drills["rows"]) == len(BRAIN_DRILL_BRAINS)
        by_brain = table(drills, "brain")
        # The static row is the true no-brain baseline: no decisions, no
        # decision log; every active brain pins a decision-log digest.
        static = by_brain["static"]
        assert static["brain_digest"] is None
        for count in ("migrations", "shrinks", "grows", "declined"):
            assert static[count] == 0, (count, static)
        for brain in ("throughput", "health-migrate"):
            assert by_brain[brain]["brain_digest"], brain
        return True

    assert benchmark(check)


def test_bench_brain_beats_static(benchmark, drills):
    """Online re-planning must pay on top of fault-aware placement.

    ``health-migrate`` strictly beats the static baseline on goodput
    under the storm, mean JCT, and $/kiter, with finish-time fairness
    no worse — the PR's acceptance bar.
    """

    def check():
        assert_gates("brain", drills, "health-migrate beats static")
        return True

    assert benchmark(check)


def test_bench_brain_acts_on_the_storm(benchmark, drills):
    """The winning brain actually re-planned: decisions were applied."""

    def check():
        assert_gates("brain", drills, "health-migrate migrated")
        return True

    assert benchmark(check)


def test_bench_brain_deadlines_hold(benchmark, drills):
    """No brain may trade the deadline job away for throughput."""

    def check():
        for brain, row in table(drills, "brain").items():
            assert row["deadline_hit_rate"] == 1.0, (
                f"{brain}: bert-deadline missed its deadline under the gray storm"
            )
        return True

    assert benchmark(check)
