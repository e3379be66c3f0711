"""Multi-tenant scheduling: placement policy shoot-out on a shared cluster.

The paper measures one job on sixteen dedicated nodes; real cloud
clusters are shared.  This experiment admits a mixed queue — a
comm-light MSTopK ResNet-50, a comm-heavy dense VGG-19, a
deadline-carrying on-demand Transformer that arrives late and preempts,
and a single-node top-k sweep — onto one virtual cluster under each
registered placement policy, and compares what placement alone changes:
co-location contention (co-located jobs split NIC bandwidth through the
Fig. 1 iteration model), queueing delay, makespan, utilization, and
dollars.

The headline mirrors the transient-server literature ("Speeding up Deep
Learning with Transient Servers", Li et al. 2019; MiCS, Zhang et al.
2022): on 25 Gbps clouds, *where* you put jobs moves throughput as much
as *how* you compress — bin-packing keeps nodes free but taxes
comm-heavy tenants with NIC sharing, while spreading (and, among busy
nodes, network-aware placement) buys the dense job its bandwidth back.
"""

from __future__ import annotations

from repro.api.config import ClusterConfig, JobSpec, SchedConfig
from repro.api.facade import run_sched
from repro.sched.scheduler import SchedReport
from repro.utils.tables import print_table

#: Policies compared (registry names), packing-first.
DEFAULT_POLICIES = ("bin-pack", "spread", "network-aware")


def scenario(
    *,
    policies: tuple[str, ...] = DEFAULT_POLICIES,
    num_nodes: int = 4,
    gpus_per_node: int = 8,
    instance: str = "tencent",
    seed: int = 7,
) -> SchedConfig:
    """The canonical mixed queue (mirrors ``examples/configs/multi_tenant.json``)."""
    return SchedConfig(
        name="multi-tenant",
        seed=seed,
        cluster=ClusterConfig(
            instance=instance, num_nodes=num_nodes, gpus_per_node=gpus_per_node
        ),
        policies=tuple(policies),
        jobs=(
            JobSpec(
                name="resnet-prod",
                profile="resnet50",
                scheme="mstopk",
                density=0.01,
                iterations=400,
                priority=1,
                min_nodes=1,
                max_nodes=2,
                gpus_per_node=4,
            ),
            JobSpec(
                name="vgg-batch",
                profile="vgg19",
                scheme="dense",
                iterations=150,
                priority=0,
                min_nodes=1,
                max_nodes=2,
                gpus_per_node=4,
            ),
            JobSpec(
                name="xfmr-deadline",
                profile="transformer",
                scheme="mstopk",
                density=0.02,
                iterations=120,
                priority=2,
                arrival_seconds=60.0,
                deadline_seconds=1200.0,
                preference="on-demand",
                min_nodes=2,
                max_nodes=2,
                gpus_per_node=8,
            ),
            JobSpec(
                name="topk-sweep",
                profile="resnet50",
                scheme="topk",
                density=0.005,
                iterations=250,
                priority=0,
                arrival_seconds=20.0,
                min_nodes=1,
                max_nodes=1,
                gpus_per_node=4,
            ),
        ),
    )


def run(
    *,
    policies: tuple[str, ...] = DEFAULT_POLICIES,
    num_nodes: int = 4,
    gpus_per_node: int = 8,
    instance: str = "tencent",
    seed: int = 7,
) -> dict[str, SchedReport]:
    """Simulate the canonical queue under each policy."""
    config = scenario(
        policies=policies,
        num_nodes=num_nodes,
        gpus_per_node=gpus_per_node,
        instance=instance,
        seed=seed,
    )
    return run_sched(config)


def main(*, fast: bool = False) -> None:
    # The simulation is closed-form; `fast` trims the policy set only.
    policies = DEFAULT_POLICIES[:2] if fast else DEFAULT_POLICIES
    reports = run(policies=policies)
    for policy, report in reports.items():
        rows = [
            [
                o.job,
                o.status,
                o.priority,
                o.nodes,
                round(o.queue_wait_s, 1),
                round(o.jct_s, 1) if o.jct_s is not None else "-",
                round(o.goodput_it_per_s, 2),
                round(o.contention_slowdown, 3),
                f"{o.grows}/{o.shrinks}",
                round(o.cost_usd, 3),
                {True: "yes", False: "MISSED", None: "-"}[o.deadline_met],
            ]
            for o in report.jobs
        ]
        print_table(
            [
                "Job",
                "status",
                "prio",
                "nodes",
                "wait s",
                "JCT s",
                "goodput it/s",
                "contention x",
                "grow/shrink",
                "cost $",
                "deadline",
            ],
            rows,
            title=(
                f"Policy {policy} ({report.num_nodes}x{report.gpus_per_node} "
                f"{report.instance}, shared NICs)"
            ),
        )
    summary_rows = [
        [
            policy,
            round(report.makespan_s, 1),
            round(report.cluster_goodput_it_per_s, 2),
            f"{100 * report.utilization:.0f}%",
            round(report.mean_queue_wait_s, 1),
            round(report.total_cost_usd, 3),
            (
                f"{100 * report.deadline_hit_rate:.0f}%"
                if report.deadline_hit_rate is not None
                else "-"
            ),
        ]
        for policy, report in reports.items()
    ]
    print_table(
        [
            "Policy",
            "makespan s",
            "goodput it/s",
            "utilization",
            "mean wait s",
            "total $",
            "deadlines",
        ],
        summary_rows,
        title="Placement policy comparison (same queue, same cluster)",
    )


if __name__ == "__main__":
    main()
