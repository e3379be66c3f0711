"""Brain drill: the gray storm, re-fought with an autotuner in the loop.

PR 8's policy drill showed that *placing* work health-first
(``fault-aware``) beats fault-blind placement under the committed
gray storm.  This drill asks the next question: once placement is
already fault-aware, does *online re-planning* still pay?  It replays
:data:`repro.faults.drill.GRAY_STORM_EVENTS` through the multi-tenant
scheduler under the ``fault-aware`` policy once per registered brain —
``static`` (the no-brain baseline: placement-time health awareness
only), ``throughput``, and ``health-migrate`` — and scores each on
goodput under the storm, mean JCT, finish-time fairness (Jain's index
over per-job completion times), and $/kilo-iteration.

The static baseline's weakness is structural: placement decisions are
made once, at admission, with whatever the ledger knew *then*.  Node 1
starts straggling at t=25 and stretches every gang it belongs to by 3x
for most of the run — but the static run never revisits the allocation,
so autoscale growth parks jobs on the straggler and leaves them there.
``health-migrate`` watches suspicion trend upward mid-run and moves the
work (or pre-emptively shrinks it onto clean hardware), which is
exactly the continuous re-planning the EasyDL/DLRover Brain argues for.

Everything is closed-form deterministic; the per-brain decision-log and
fault-log digests pin bit-identical replay across hosts and ``--jobs``
widths (``tests/brain/test_driver_integration.py``).
"""

from __future__ import annotations

from repro.api.config import SchedConfig
from repro.faults.drill import gray_storm_config, score_drills

#: Brains the drill compares (static first: it is the baseline every
#: active brain must beat).
BRAIN_DRILL_BRAINS = ("static", "throughput", "health-migrate")

#: The placement policy every drill run uses.  Fixing it to the
#: strongest fault-aware baseline makes the comparison honest: the
#: brain's win is attributable to *online re-planning*, not to beating
#: a fault-blind placement it never had to compete with.
BRAIN_DRILL_POLICY = "fault-aware"

#: Columns of the drill scorecard (the brain-autotune experiment's table).
BRAIN_DRILL_COLUMNS = [
    "brain",
    "storm_goodput",
    "baseline_goodput",
    "goodput_ratio",
    "mean_jct_s",
    "fairness",
    "usd_per_kiter",
    "deadline_hit_rate",
    "migrations",
    "shrinks",
    "grows",
    "declined",
    "brain_digest",
    "fault_digest",
]


def brain_storm_config(
    brain: str = "static", *, storm: bool = True, seed: int = 7
) -> SchedConfig:
    """The gray-storm scenario under ``fault-aware``, with one brain.

    Identical cluster, jobs, storm and health knobs to the PR 8 policy
    drill — only the ``brain`` section varies, so every delta in the
    scorecard is the autotuner's doing.
    """
    data = gray_storm_config([BRAIN_DRILL_POLICY], storm=storm, seed=seed).to_dict()
    data["name"] = f"gray-storm-{brain}" + ("" if storm else "-baseline")
    data["brain"] = {"name": brain}
    return SchedConfig.from_dict(data)


def run_brain_drills(brains=None, *, seed: int = 7) -> list[dict]:
    """Gray storm per brain + one fault-free no-brain baseline.

    Returns one scored dict per brain.  ``baseline_goodput`` is the
    fault-free, brain-free run's cluster goodput — the healthy schedule
    every brain is normalised against, so ``goodput_ratio`` reads as
    "fraction of the healthy schedule kept under the storm".
    """
    from repro.brain.base import BRAINS

    baseline = brain_storm_config(seed=seed, storm=False)
    names = [BRAINS.canonical(b) or b for b in brains or BRAIN_DRILL_BRAINS]
    cases = [(brain, brain_storm_config(brain, seed=seed), baseline) for brain in names]
    # ``entries``, the full structured decision log, is for callers that
    # audit the replay: not a scorecard column (the digest pins it).
    return score_drills(cases, [*BRAIN_DRILL_COLUMNS, "entries"])


__all__ = [
    "BRAIN_DRILL_BRAINS",
    "BRAIN_DRILL_POLICY",
    "BRAIN_DRILL_COLUMNS",
    "brain_storm_config",
    "run_brain_drills",
]
