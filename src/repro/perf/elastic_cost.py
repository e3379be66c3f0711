"""Cost and goodput accounting for elastic (spot-market) training runs.

Transient-server training is only worth its operational pain if the
spot discount survives the lost work and recovery overhead ("Speeding up
Deep Learning with Transient Servers", Li et al. 2019).  This module
turns an :class:`~repro.elastic.elastic_trainer.ElasticRunReport` into
the numbers that decide that trade:

* **goodput** — useful iterations per virtual second, versus the raw
  attempted-iteration throughput;
* **lost work** — the fraction of attempted iterations rolled back;
* **dollars** — spot cost of the churny run (live node-hours at the
  discounted rate) versus the on-demand baseline that trains the same
  useful iterations on a stable cluster with zero churn overhead.

Prices come from :data:`repro.elastic.events.SPOT_PROFILES` (ballpark
USD per node-hour for the Table 1 8xV100 instances).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.elastic.elastic_trainer import ElasticRunReport
from repro.elastic.events import SPOT_PROFILES


@dataclass(frozen=True)
class ElasticCostReport:
    """Economic summary of one elastic run."""

    scheme: str
    cloud: str
    goodput: float  # useful iterations / virtual second
    raw_throughput: float  # attempted iterations / virtual second
    lost_fraction: float  # share of attempted iterations rolled back
    spot_cost: float  # USD for the churny spot run
    on_demand_cost: float  # USD for the stable on-demand baseline
    cost_per_kilo_iteration: float  # USD per 1000 useful iterations (spot)

    @property
    def savings_fraction(self) -> float:
        """Relative saving of spot over on-demand (negative = spot loses)."""
        if self.on_demand_cost == 0:
            return 0.0
        return 1.0 - self.spot_cost / self.on_demand_cost


def account(report: ElasticRunReport, *, instance: str) -> ElasticCostReport:
    """Price an elastic run against its on-demand baseline.

    The baseline trains the same number of *useful* iterations on a
    stable on-demand cluster of the run's time-weighted mean live node
    count (so the baseline buys the same capacity the run actually
    used, just stably and on-demand) at the run's churn-free
    per-iteration time — total step time net of recovery overhead,
    averaged over attempted iterations — so the comparison isolates
    what churn costs.
    """
    key = instance.lower()
    if key not in SPOT_PROFILES:
        raise KeyError(
            f"unknown spot profile {instance!r}; available: {sorted(SPOT_PROFILES)}"
        )
    profile = SPOT_PROFILES[key]
    hourly = profile.on_demand_hourly

    spot_cost = report.node_seconds / 3600.0 * hourly * profile.spot_discount

    step_seconds = report.compute_seconds + report.comm_seconds
    per_iteration = (
        step_seconds / report.wall_iterations if report.wall_iterations else 0.0
    )
    baseline_seconds = per_iteration * report.useful_iterations
    nodes = report.node_seconds / report.total_seconds if report.total_seconds else 1.0
    on_demand_cost = baseline_seconds * max(nodes, 1.0) / 3600.0 * hourly

    cost_per_kilo = (
        spot_cost / report.useful_iterations * 1000.0
        if report.useful_iterations
        else 0.0
    )
    return ElasticCostReport(
        scheme=report.scheme,
        cloud=profile.cloud,
        goodput=report.goodput,
        raw_throughput=report.raw_throughput,
        lost_fraction=report.lost_fraction,
        spot_cost=spot_cost,
        on_demand_cost=on_demand_cost,
        cost_per_kilo_iteration=cost_per_kilo,
    )


__all__ = ["ElasticCostReport", "account"]
