"""Fault drills: recovery scorecard + replay determinism gates.

Runs the seeded seven-fault storm (:data:`repro.faults.drill.STORM_EVENTS`
— NIC flap, fail-slow disk, persistent straggler, gray link, unwarned
node crash, checkpoint corruption, AZ-wide spot reclaim) against
**every registered aggregation scheme**, paired with a fault-free
baseline per scheme, and scores detection-to-recovery latency, goodput
under the storm vs baseline, lost work, and $/kilo-iteration.  The
payload also embeds the gray-failure *policy drill*
(``meta.policy_drill``): the committed gray storm replayed once per
placement policy, where the ``fault-aware`` policy must beat every
fault-blind built-in on goodput under the storm.

Determinism is the headline gate: the whole drill matrix is produced
twice — serially and through a 2-worker process pool — and the two
BENCH payloads (rows, digests, full fault logs, policy drill) must
match bit for bit.  Every timestamp in the fault log is *virtual*
seconds, so this holds on any host at any ``--jobs`` width.

Emits ``results/BENCH_fault_drills_run.json``; the *committed* baseline
lives at ``results/BENCH_fault_drills.json`` and is never written by a
bench run (updating it is a deliberate ``cp`` after a representative
run).  The CI ``faults-smoke`` job gates fresh runs against it via
``check_regression.py fault_drills``.
"""

import pytest
from check_regression import MIN_GOODPUT_RATIO, assert_gates, table

from repro.api.registry import SCHEMES
from repro.exec.sweeper import ParallelSweeper
from repro.faults.drill import POLICY_DRILL_POLICIES, STORM_EVENTS, drills_payload
from repro.utils.eventlog import canonical_json

SEED = 7
POOL_JOBS = 2


@pytest.fixture(scope="module")
def drills(save_result):
    serial = drills_payload(seed=SEED)
    pooled = drills_payload(
        seed=SEED, sweeper=ParallelSweeper("process", jobs=POOL_JOBS)
    )
    deterministic = canonical_json(serial) == canonical_json(pooled)

    return save_result(
        "fault_drills_run",
        serial["text"],
        columns=serial["columns"],
        rows=serial["rows"],
        meta={
            **serial["meta"],
            "deterministic": deterministic,
            "pool_jobs": POOL_JOBS,
            "min_goodput_ratio": MIN_GOODPUT_RATIO,
        },
    )


def test_bench_drills_determinism(benchmark, drills):
    """Serial and process-pool drill matrices match bit for bit."""

    def check():
        assert_gates("fault_drills", drills, "drill determinism")
        return True

    assert benchmark(check)


def test_bench_drills_cover_every_scheme(benchmark, drills):
    """One storm + baseline pair per registered scheme, none skipped."""

    def check():
        assert drills["meta"]["schemes"] == SCHEMES.available()
        assert len(drills["rows"]) == len(SCHEMES.available())
        return True

    assert benchmark(check)


def test_bench_drills_recover(benchmark, drills):
    """Every scheme detects and recovers from the full composed storm."""

    def check():
        assert_gates("fault_drills", drills, "storm recovery")
        for scheme, row in table(drills, "scheme").items():
            assert row["injected"] == len(STORM_EVENTS), (scheme, row)
        return True

    assert benchmark(check)


def test_bench_policy_drill_fault_aware_wins(benchmark, drills):
    """Reading the health ledger must pay: fault-aware beats fault-blind."""

    def check():
        drill = drills["meta"]["policy_drill"]
        assert set(table(drill, "policy")) == set(POLICY_DRILL_POLICIES)
        assert_gates("fault_drills", drills, "fault-aware beats fault-blind")
        assert set(drill["digests"]) == set(POLICY_DRILL_POLICIES)
        return True

    assert benchmark(check)


def test_bench_drills_goodput_floor(benchmark, drills):
    """Goodput under the storm clears the recovery-is-working floor."""

    def check():
        assert_gates("fault_drills", drills, "goodput floor under the storm")
        return True

    assert benchmark(check)
