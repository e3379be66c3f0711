"""Elastic churn: training under spot revocations, by comm scheme.

The paper's numbers assume 16 stable nodes; this experiment asks what
happens on the cluster you can actually afford — spot instances that
come and go.  It sweeps revocation rates x aggregation schemes (dense
TreeAR, gTop-k, HiTopKComm) with the elastic trainer: every scheme sees
the *same* churn schedule per rate, stragglers compose via the
variability model, and the cost layer prices each run against its
on-demand baseline.

The headline result mirrors the paper's steady-state one: the
hierarchical sparse scheme keeps its throughput advantage under churn —
its shorter iterations mean less work in flight per revocation, and the
goodput gap versus dense all-reduce *widens* as the revocation rate
rises.
"""

from __future__ import annotations

from repro.api import (
    ClusterConfig,
    CommConfig,
    ElasticConfig,
    RunConfig,
    TrainConfig,
)
from repro.api import run as run_config
from repro.elastic.elastic_trainer import ElasticRunReport
from repro.perf.elastic_cost import ElasticCostReport
from repro.utils.seeding import derive_seed
from repro.utils.tables import print_table

#: Schemes compared (registry names), paper-system last.
DEFAULT_SCHEMES = ("dense", "gtopk", "mstopk")
#: Revocations per node per iteration; 0.01 on the default 3-node
#: cluster averages ~3 revocations per 100 iterations.
DEFAULT_RATES = (0.0, 0.005, 0.02)

#: Iterations per cell; ``--fast`` trims them.
DEFAULT_ITERATIONS = 120


def run(
    *,
    schemes: tuple[str, ...] = DEFAULT_SCHEMES,
    rates: tuple[float, ...] = DEFAULT_RATES,
    iterations: int = DEFAULT_ITERATIONS,
    num_nodes: int = 3,
    gpus_per_node: int = 2,
    local_batch: int = 8,
    num_samples: int = 512,
    density: float = 0.05,
    timing_d: int = 25_000_000,
    sigma: float = 0.1,
    rejoin_delay: int = 20,
    checkpoint_every: int = 20,
    compute_seconds: float = 0.3,
    checkpoint_seconds: float = 0.5,
    restart_seconds: float = 5.0,
    instance: str = "tencent",
    seed: int = 11,
) -> dict[tuple[str, float], tuple[ElasticRunReport, ElasticCostReport]]:
    """Sweep schemes x revocation rates; returns run + cost reports.

    Per rate, every scheme runs with the same trainer seed, so the
    Poisson churn schedule (and the straggler draw) is identical across
    schemes — differences are attributable to the aggregation scheme.
    ``timing_d`` sizes the analytic comm-time model (default: the
    paper's ~25M-parameter ResNet-50) while the convergence analogue
    trains a small MLP; ``compute_seconds`` defaults to a
    ResNet-50-like ~0.3 s forward+backward so recovery overheads
    amortise at a realistic scale.

    Every cell is one declarative :class:`~repro.api.RunConfig` driven
    through :func:`repro.api.run`; ``data_seed`` is pinned across cells
    so all runs see the same spiral dataset.
    """
    data_seed = derive_seed(seed, "data")
    results: dict[tuple[str, float], tuple[ElasticRunReport, ElasticCostReport]] = {}
    for rate in rates:
        for scheme in schemes:
            config = RunConfig(
                name=f"elastic-churn-{scheme}-{rate:g}",
                seed=derive_seed(seed, "rate", repr(rate)),
                cluster=ClusterConfig(
                    instance=instance,
                    num_nodes=num_nodes,
                    gpus_per_node=gpus_per_node,
                ),
                comm=CommConfig(scheme=scheme, density=density),
                train=TrainConfig(
                    model="mlp-tiny",
                    num_samples=num_samples,
                    local_batch=local_batch,
                    data_seed=data_seed,
                ),
                elastic=ElasticConfig(
                    iterations=iterations,
                    schedule="poisson" if rate > 0 else "none",
                    rate=rate,
                    warned_fraction=0.5,
                    rejoin_delay=rejoin_delay,
                    checkpoint_every=checkpoint_every,
                    compute_seconds=compute_seconds,
                    checkpoint_seconds=checkpoint_seconds,
                    restart_seconds=restart_seconds,
                    timing_d=timing_d,
                    sigma=sigma,
                ),
            )
            report = run_config(config)
            results[(scheme, rate)] = (report.elastic_run, report.cost)
    return results


def main(*, fast: bool = False) -> None:
    if fast:
        results = run(rates=(0.0, 0.02), iterations=40, num_samples=256)
    else:
        results = run()
    rates = sorted({rate for _, rate in results})
    schemes = list(dict.fromkeys(scheme for scheme, _ in results))
    for rate in rates:
        rows = []
        for scheme in schemes:
            report, cost = results[(scheme, rate)]
            rows.append(
                [
                    report.scheme,
                    round(report.goodput, 2),
                    round(report.raw_throughput, 2),
                    f"{100 * report.lost_fraction:.1f}%",
                    report.revocations,
                    report.joins,
                    round(cost.cost_per_kilo_iteration, 3),
                    f"{100 * cost.savings_fraction:.0f}%",
                    round(report.final_loss, 4),
                ]
            )
        print_table(
            [
                "Scheme",
                "goodput it/s",
                "raw it/s",
                "lost work",
                "revoked",
                "joined",
                "$ / 1k iters",
                "vs on-demand",
                "final loss",
            ],
            rows,
            title=(
                f"Elastic churn @ rate {rate}/node-iter "
                "(3x2 Tencent spot cluster, d=25M comm model)"
            ),
        )
        print()


if __name__ == "__main__":
    main()
