"""Recovery drills: a seeded fault storm against every aggregation scheme.

A *drill* runs the same elastic workload twice per scheme — once
fault-free (the baseline) and once under :data:`STORM_EVENTS`, a
composed storm of seven fault kinds (NIC flap, persistent straggler,
gray link, unwarned node crash, checkpoint corruption, fail-slow disk,
AZ-wide spot reclaim) — and scores detection-to-recovery latency,
goodput under the storm vs the no-fault baseline, lost work, and $
cost.  A second act, the *policy drill*, replays
:data:`GRAY_STORM_EVENTS` through the multi-tenant scheduler once per
placement policy and scores the health-ledger-driven ``fault-aware``
policy against the fault-blind built-ins.  Both acts, and the brain
drill (:mod:`repro.brain.drill`), run and score their baseline/storm
pairs through one runner, :func:`score_drills`.  The per-scheme and
per-policy fault-log digests pin bit-identical replay across hosts and
``--jobs`` widths (``tests/faults/test_drill.py``).
"""

from __future__ import annotations

from repro.api.config import RunConfig, SchedConfig
from repro.api.registry import SCHEMES
from repro.sched.policies import POLICIES
from repro.utils.registry import ConfigError

#: The composed storm (``at`` in wall iterations of an 80-iteration run):
#: a NIC flap, a fail-slow disk, and a straggler window overlap the
#: early run — the disk window covers the iteration-20 and -40
#: checkpoint writes, blowing the ``checkpoint_timeout`` budget on each
#: (abandon + retry on the fallback slot) — a gray link adds stochastic
#: comm jitter, an unwarned crash forces a rollback through the
#: still-slow disk, the newest checkpoint is then corrupted so the
#: AZ-wide reclaim that follows must fall back through the CRC detection
#: path to the older slot.
STORM_EVENTS = (
    {"kind": "nic-degrade", "at": 14, "duration": 12, "scale": 0.35},
    {"kind": "disk-slow", "at": 15, "duration": 30, "stretch": 6.0},
    {"kind": "straggler", "at": 24, "duration": 18, "stretch": 2.5},
    {"kind": "gray-net", "at": 34, "duration": 10, "loss_rate": 0.05, "jitter": 0.4},
    {"kind": "node-crash", "at": 44},
    {"kind": "checkpoint-corrupt", "at": 52},
    {"kind": "az-reclaim", "at": 60, "fraction": 0.5},
)

#: Over-budget checkpoint writes are abandoned at this many seconds and
#: retried on the fallback slot (healthy writes cost 1 s; the disk-slow
#: window stretches them to 6 s, so the budget trips).
STORM_CHECKPOINT_TIMEOUT = 4.0

#: Columns of the drill scorecard (the ``Fault drills`` experiment's table).
DRILL_COLUMNS = [
    "scheme",
    "injected",
    "recovered",
    "absorbed",
    "detect_recover_s",
    "baseline_goodput",
    "storm_goodput",
    "goodput_ratio",
    "lost_iterations",
    "corrupt_checkpoints",
    "baseline_usd_per_kiter",
    "storm_usd_per_kiter",
    "log_digest",
]


def drill_config(
    scheme: str,
    *,
    storm: bool,
    seed: int = 7,
    iterations: int = 80,
    num_nodes: int = 4,
) -> RunConfig:
    """The drill workload for one scheme: small, fast, fault-heavy.

    ``schedule: none`` keeps churn out of the picture — every membership
    change in a storm run is fault-injected, so the baseline/storm delta
    is attributable entirely to the plan.
    """
    data = {
        "name": f"fault-drill-{scheme}" + ("" if storm else "-baseline"),
        "seed": seed,
        "cluster": {"instance": "tencent", "num_nodes": num_nodes, "gpus_per_node": 2},
        "comm": {"scheme": scheme, "density": 0.05},
        "train": {"model": "mlp-tiny", "num_samples": 256, "local_batch": 8},
        "elastic": {
            "iterations": iterations,
            "schedule": "none",
            "checkpoint_every": 20,
            "min_nodes": 1,
        },
    }
    if storm:
        data["faults"] = {
            "events": [dict(event) for event in STORM_EVENTS],
            "checkpoint_timeout": STORM_CHECKPOINT_TIMEOUT,
        }
    return RunConfig.from_dict(data)


def run_drills(schemes=None, *, seed: int = 7) -> list[dict]:
    """Baseline + storm per scheme; returns one scored dict per scheme."""
    names = [SCHEMES.canonical(s) or s for s in schemes or SCHEMES.available()]
    cases = [
        (
            scheme,
            drill_config(scheme, storm=True, seed=seed),
            drill_config(scheme, storm=False, seed=seed),
        )
        for scheme in names
    ]
    # ``entries``, the full structured log, is for callers that audit
    # the replay: not a scorecard column (the digest pins it).
    return score_drills(cases, [*DRILL_COLUMNS, "entries"])


# ---------------------------------------------------------------------------
# Policy drill: gray-failure storm through the multi-tenant scheduler
# ---------------------------------------------------------------------------

#: The gray-failure storm for the placement-policy drill (``at`` in
#: virtual seconds).  The storm opens on an *idle* cluster — the flaky
#: hardware shows its colours before the first job arrives, so the
#: health ledger has signal when placement decisions start.  The flaky
#: nodes sit at *low* ids on purpose: every fault-blind built-in breaks
#: ties toward ascending id, so it places (and re-places, after each
#: crash) work straight onto the hardware the ledger would have dodged.
#: Node 0 flaps (crash + repair, four times — quarantined at its second
#: flap and probed back after the cool-down), node 1 straggles for most
#: of the run, node 2 carries a gray link, and an AZ reclaim late in
#: the storm takes out a contiguous block.
GRAY_STORM_EVENTS = (
    {"kind": "node-crash", "at": 20, "duration": 30, "node": 0,
     "repeat": 4, "period": 90},
    {"kind": "straggler", "at": 25, "duration": 500, "stretch": 3.0, "node": 1,
     "repeat": 2, "period": 30},
    {"kind": "gray-net", "at": 30, "duration": 450, "loss_rate": 0.12,
     "jitter": 0.8, "node": 2, "repeat": 2, "period": 30},
    {"kind": "az-reclaim", "at": 240, "duration": 60, "fraction": 0.25},
)

#: Health-ledger knobs for the policy drill: the threshold is low enough
#: that node 0's second flap quarantines it, and the cool-down long
#: enough that it stays benched through the storm's worst stretch.
GRAY_STORM_HEALTH = {
    "quarantine_threshold": 1.5,
    "health_half_life": 240.0,
    "probe_cooldown": 240.0,
}

#: Placement policies the drill compares (fault-aware last, so the
#: fault-blind baselines read first in the table).
POLICY_DRILL_POLICIES = ("bin-pack", "spread", "network-aware", "fault-aware")

#: Columns of the policy drill scorecard (the ``Fault drills`` experiment's
#: gray-storm table).
POLICY_DRILL_COLUMNS = [
    "policy",
    "injected",
    "recovered",
    "requeues",
    "quarantines",
    "lost_iterations",
    "mean_recovery_s",
    "storm_goodput",
    "baseline_goodput",
    "goodput_ratio",
    "makespan_s",
    "usd_per_kiter",
    "log_digest",
]


def gray_storm_config(
    policies=None, *, storm: bool = True, seed: int = 7
) -> SchedConfig:
    """The policy-drill scenario: four tenants, eight nodes, gray storm.

    Demand leaves slack (peak demand is six of eight nodes), so a
    policy that *can* read the health ledger always has clean nodes to
    steer to, and every job arrives *after* the storm opens — placement
    happens with a warm ledger, which is exactly the regime the drill
    scores.  The deadline/priority jobs are the ones fault-aware keeps
    off suspect hardware.
    """
    data = {
        "name": "gray-storm" + ("" if storm else "-baseline"),
        "seed": seed,
        "cluster": {"instance": "tencent", "num_nodes": 8, "gpus_per_node": 2},
        "policies": list(policies) if policies else list(POLICY_DRILL_POLICIES),
        "jobs": [
            {
                "name": "resnet-prod",
                "profile": "resnet50",
                "scheme": "mstopk",
                "density": 0.01,
                "iterations": 800,
                "priority": 1,
                "arrival_seconds": 60.0,
                "min_nodes": 1,
                "max_nodes": 2,
            },
            {
                "name": "bert-deadline",
                "profile": "transformer",
                "scheme": "dense",
                "iterations": 300,
                "deadline_seconds": 900.0,
                "arrival_seconds": 70.0,
                "min_nodes": 1,
                "max_nodes": 2,
            },
            {
                "name": "vgg-batch",
                "profile": "vgg19",
                "scheme": "dense",
                "iterations": 200,
                "arrival_seconds": 80.0,
                "min_nodes": 1,
                "max_nodes": 1,
            },
            {
                "name": "resnet-scavenge",
                "profile": "resnet50",
                "scheme": "topk",
                "density": 0.01,
                "iterations": 150,
                "arrival_seconds": 90.0,
                "min_nodes": 1,
                "max_nodes": 1,
            },
        ],
    }
    if storm:
        data["faults"] = {
            "events": [dict(event) for event in GRAY_STORM_EVENTS],
            **GRAY_STORM_HEALTH,
        }
    return SchedConfig.from_dict(data)


def run_policy_drills(policies=None, *, seed: int = 7) -> list[dict]:
    """Gray storm + fault-free baseline per policy; one scored dict each.

    Goodput-under-storm is the cluster goodput of the storm run; the
    ratio normalises it by the same policy's fault-free run, so the
    number isolates how much of the healthy schedule each policy keeps
    when the hardware turns gray.
    """
    names = [POLICIES.canonical(p) or p for p in policies or POLICY_DRILL_POLICIES]
    cases = [
        (
            policy,
            gray_storm_config([policy], seed=seed),
            gray_storm_config([policy], seed=seed, storm=False),
        )
        for policy in names
    ]
    return score_drills(cases, POLICY_DRILL_COLUMNS)


# ---------------------------------------------------------------------------
# Scoring: one runner, one column extractor per report type
# ---------------------------------------------------------------------------


def score_drills(cases, columns) -> list[dict]:
    """Run and score ``(label, storm config, baseline config)`` cases.

    A config is a :class:`RunConfig` (run through
    :func:`repro.api.facade.run`) or a one-policy :class:`SchedConfig`
    (through :func:`repro.api.facade.run_sched`).  Each distinct config runs once —
    keyed by its canonical JSON, so a baseline several cases share is
    simulated once.  Row *i* maps ``columns[0]`` to case *i*'s label and
    every other column to its score, storm against baseline.
    """
    labels = [label for label, _, _ in cases]
    duplicates = sorted({label for label in labels if labels.count(label) > 1})
    if duplicates:
        noun = columns[0]
        plural = noun[:-1] + "ies" if noun.endswith("y") else noun + "s"
        raise ConfigError(
            f"{plural} resolve to duplicate entries: {', '.join(duplicates)}"
        )
    configs = {config.to_json(): config for _, *pair in cases for config in pair}
    reports = {key: _run_report(config) for key, config in configs.items()}
    rows = []
    for label, storm, baseline in cases:
        score = _run_scores if isinstance(storm, RunConfig) else _sched_scores
        scores = score(reports[storm.to_json()], reports[baseline.to_json()])
        rows.append({columns[0]: label, **{c: scores[c] for c in columns[1:]}})
    return rows


def _run_report(config):
    """The one report of a run config or of a one-policy sched config."""
    from repro.api.facade import run, run_sched

    if isinstance(config, RunConfig):
        return run(config)
    (report,) = run_sched(config).values()
    return report


def _goodput_scores(storm: float, baseline: float) -> dict:
    """Goodput under the storm, fault-free, and the share kept."""
    return {
        "storm_goodput": round(storm, 6),
        "baseline_goodput": round(baseline, 6),
        "goodput_ratio": round(storm / baseline, 6) if baseline else None,
    }


def _run_scores(storm, baseline) -> dict:
    """Every column an elastic :class:`~repro.api.facade.RunReport` scores."""
    faults = storm.faults["summary"]
    return {
        "injected": faults["injected"],
        "recovered": faults["recovered"],
        "absorbed": faults["absorbed"],
        "detect_recover_s": faults["mean_detect_recover_s"],
        **_goodput_scores(
            storm.summary["goodput_it_per_s"], baseline.summary["goodput_it_per_s"]
        ),
        "lost_iterations": storm.elastic_run.lost_iterations,
        "corrupt_checkpoints": storm.elastic_run.corrupt_checkpoints,
        "baseline_usd_per_kiter": round(baseline.summary["usd_per_kilo_iter"], 6),
        "storm_usd_per_kiter": round(storm.summary["usd_per_kilo_iter"], 6),
        "log_digest": faults["digest"],
        "entries": storm.faults["entries"],
    }


def _sched_scores(storm, baseline) -> dict:
    """Every column a :class:`~repro.sched.scheduler.SchedReport` scores:
    the policy drill's recovery counters and the brain drill's JCT,
    fairness and decision counts."""
    log = storm.fault_log
    brain_log = storm.brain_log or {}
    recovery_s = log["mean_detect_recover_s"]
    iters = sum(outcome.iterations for outcome in storm.jobs)
    done = [outcome.jct_s for outcome in storm.jobs if outcome.jct_s is not None]
    return {
        "injected": log["injected"],
        "recovered": log["recovered"],
        "requeues": log["requeues"],
        "quarantines": log["health"]["quarantines"],
        "lost_iterations": round(log["lost_iterations"], 6),
        "mean_recovery_s": round(recovery_s, 6) if recovery_s is not None else None,
        **_goodput_scores(
            storm.cluster_goodput_it_per_s, baseline.cluster_goodput_it_per_s
        ),
        "makespan_s": round(storm.makespan_s, 3),
        "usd_per_kiter": (
            round(storm.total_cost_usd / (iters / 1000.0), 6) if iters else None
        ),
        "mean_jct_s": round(sum(done) / len(done), 3) if done else None,
        "fairness": round(_jain_fairness(done), 6) if done else None,
        "deadline_hit_rate": storm.deadline_hit_rate,
        "migrations": brain_log.get("migrations", 0),
        "shrinks": brain_log.get("shrinks", 0),
        "grows": brain_log.get("grows", 0),
        "declined": brain_log.get("declined", 0),
        "brain_digest": brain_log.get("digest"),
        # The policy and brain scorecards name the fault-log digest apart.
        "log_digest": log["digest"],
        "fault_digest": log["digest"],
        "entries": brain_log.get("entries", []),
    }


def _jain_fairness(values) -> float:
    """Jain's fairness index over (a non-empty list of) per-job
    completion times, in (0, 1].

    1.0 = every job finished in the same time; the index collapses
    toward ``1/n`` as one tenant's completion time dwarfs the rest —
    the finish-time-fairness lens on a storm that slows whichever gang
    is stuck on the straggler.
    """
    total = sum(values)
    square_sum = sum(v * v for v in values)
    if square_sum == 0:
        return 1.0
    return (total * total) / (len(values) * square_sum)


__all__ = [
    "STORM_EVENTS",
    "STORM_CHECKPOINT_TIMEOUT",
    "DRILL_COLUMNS",
    "GRAY_STORM_EVENTS",
    "GRAY_STORM_HEALTH",
    "POLICY_DRILL_POLICIES",
    "POLICY_DRILL_COLUMNS",
    "drill_config",
    "gray_storm_config",
    "run_drills",
    "run_policy_drills",
    "score_drills",
]
