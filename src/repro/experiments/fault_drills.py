"""Fault drills: recovery scorecard under a composed fault storm.

The paper's evaluation assumes sixteen healthy dedicated nodes; public
cloud fleets crash, flap, straggle, go gray, and lose whole
availability zones.  This experiment replays one seeded seven-fault
storm — NIC flap, fail-slow disk, persistent straggler, gray link,
*unwarned* node crash, checkpoint corruption, and a correlated AZ-wide
spot reclaim — against every registered aggregation scheme through the
elastic trainer, and scores detection-to-recovery latency, goodput
under the storm vs the no-fault baseline, lost work, and
$/kilo-iteration.  A second act drives the same fault kinds through
the multi-tenant scheduler, where a crash shrinks or requeues tenants
and a ``duration`` schedules node repair.  A third act replays the
gray-failure storm once per placement policy: the ``fault-aware``
policy reads the node-health ledger and keeps production jobs off the
flapping/straggling/gray hardware every fault-blind built-in keeps
re-placing them onto.

The headline: compressed schemes don't just communicate cheaper — they
*recover* cheaper, because the rollback-replay tax after an unwarned
crash is priced in iteration time, and MSTopK iterations are the
shortest in the storm too.
"""

from __future__ import annotations

from repro.api.config import ClusterConfig, FaultConfig, FaultsConfig, JobSpec, SchedConfig
from repro.api.facade import run_sched
from repro.faults.drill import (
    DRILL_COLUMNS,
    GRAY_STORM_EVENTS,
    POLICY_DRILL_COLUMNS,
    STORM_EVENTS,
    run_drills,
    run_policy_drills,
)
from repro.utils.tables import print_table

#: Schemes the trimmed (--fast) drill covers.
FAST_SCHEMES = ("dense", "topk", "mstopk")


def sched_storm_scenario(*, seed: int = 7) -> SchedConfig:
    """Two tenants on six nodes through a crash + reclaim + flap storm."""
    return SchedConfig(
        name="fault-storm-sched",
        seed=seed,
        cluster=ClusterConfig(instance="tencent", num_nodes=6, gpus_per_node=2),
        policies=("bin-pack", "spread", "fault-aware"),
        jobs=(
            JobSpec(
                name="resnet-prod",
                profile="resnet50",
                scheme="mstopk",
                density=0.01,
                iterations=300,
                min_nodes=1,
                max_nodes=3,
            ),
            JobSpec(
                name="vgg-batch",
                profile="vgg19",
                scheme="dense",
                iterations=200,
                arrival_seconds=5.0,
                min_nodes=2,
                max_nodes=4,
            ),
        ),
        faults=FaultsConfig(
            events=(
                FaultConfig(kind="nic-degrade", at=30, duration=40, scale=0.4),
                FaultConfig(kind="node-crash", at=60, duration=120),
                FaultConfig(kind="straggler", at=40, duration=50, stretch=2.0),
                FaultConfig(kind="az-reclaim", at=90, duration=200, fraction=0.5),
            )
        ),
    )


def main(fast: bool = False) -> None:
    schemes = FAST_SCHEMES if fast else None  # None = every registered scheme
    print(f"Fault storm ({len(STORM_EVENTS)} composed faults, seed 7):")
    for event in STORM_EVENTS:
        print(f"  {event}")
    results = run_drills(schemes, seed=7)
    rows = [[result[column] for column in DRILL_COLUMNS] for result in results]
    print_table(
        DRILL_COLUMNS,
        rows,
        title="Recovery drill: storm vs no-fault baseline, per scheme",
    )

    print("\nScheduler under the same fault kinds (crash repairs after 120 s):")
    reports = run_sched(sched_storm_scenario())
    sched_rows = []
    for policy, report in reports.items():
        log = report.fault_log
        sched_rows.append(
            [
                policy,
                log["injected"],
                log["recovered"],
                log["requeues"],
                round(log["lost_iterations"], 1),
                len(log["nodes_down_end"]),
                round(report.makespan_s, 1),
                log["digest"],
            ]
        )
    print_table(
        [
            "policy",
            "injected",
            "recovered",
            "requeues",
            "lost_iters",
            "down_at_end",
            "makespan_s",
            "log_digest",
        ],
        sched_rows,
        title="Sched fault storm: recovery by placement policy",
    )

    print(f"\nGray-failure storm ({len(GRAY_STORM_EVENTS)} faults, seed 7) "
          "by placement policy:")
    for event in GRAY_STORM_EVENTS:
        print(f"  {event}")
    policy_results = run_policy_drills(seed=7)
    policy_rows = [
        [result[column] for column in POLICY_DRILL_COLUMNS]
        for result in policy_results
    ]
    print_table(
        POLICY_DRILL_COLUMNS,
        policy_rows,
        title="Policy drill: goodput under the gray storm, per policy",
    )


if __name__ == "__main__":
    main()
