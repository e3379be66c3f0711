"""Elastic cost accounting: goodput, lost work, and spot economics."""

import pytest

from repro.elastic.elastic_trainer import ElasticRunReport
from repro.elastic.events import SPOT_PROFILES
from repro.perf.elastic_cost import account


def make_report(**overrides) -> ElasticRunReport:
    defaults = dict(
        scheme="HiTopKComm",
        useful_iterations=100,
        wall_iterations=110,
        lost_iterations=10,
        revocations=2,
        rollbacks=2,
        checkpoints=5,
        compute_seconds=33.0,
        comm_seconds=22.0,
        overhead_seconds=11.0,
        node_seconds=264.0,  # 4 nodes x 66 s
        world_sizes=[8],
    )
    defaults.update(overrides)
    return ElasticRunReport(**defaults)


class TestReportProperties:
    def test_goodput_and_raw_throughput(self):
        report = make_report()
        assert report.total_seconds == pytest.approx(66.0)
        assert report.goodput == pytest.approx(100 / 66.0)
        assert report.raw_throughput == pytest.approx(110 / 66.0)
        assert report.goodput < report.raw_throughput

    def test_lost_fraction(self):
        assert make_report().lost_fraction == pytest.approx(10 / 110)
        empty = make_report(wall_iterations=0, lost_iterations=0, useful_iterations=0)
        assert empty.lost_fraction == 0.0
        assert empty.goodput == 0.0 if empty.total_seconds == 0 else True


class TestAccount:
    def test_spot_cost_from_node_seconds(self):
        report = make_report()
        profile = SPOT_PROFILES["tencent"]
        cost = account(report, instance="tencent")
        expected = 264.0 / 3600.0 * profile.on_demand_hourly * profile.spot_discount
        assert cost.spot_cost == pytest.approx(expected)
        assert cost.cloud == "tencent"
        assert cost.scheme == "HiTopKComm"

    def test_on_demand_baseline_excludes_overhead(self):
        report = make_report()
        cost = account(report, instance="tencent")
        # Baseline: churn-free per-iteration time x useful iterations, on
        # the run's mean live node count (264 node-seconds over 66 s).
        per_iter = 55.0 / 110
        baseline_seconds = per_iter * 100
        expected = baseline_seconds * 4 / 3600.0 * SPOT_PROFILES["tencent"].on_demand_hourly
        assert cost.on_demand_cost == pytest.approx(expected)

    def test_cost_per_kilo_iteration(self):
        cost = account(make_report(), instance="aws")
        assert cost.cost_per_kilo_iteration == pytest.approx(cost.spot_cost * 10)

    def test_savings_positive_without_churn(self):
        # No churn: spot runs the same seconds at a discount -> saves.
        report = make_report(
            wall_iterations=100,
            lost_iterations=0,
            overhead_seconds=0.0,
            node_seconds=220.0,  # 4 nodes x 55 s
        )
        cost = account(report, instance="tencent")
        profile = SPOT_PROFILES["tencent"]
        assert cost.savings_fraction == pytest.approx(1 - profile.spot_discount)

    def test_heavy_churn_erodes_savings(self):
        calm = account(
            make_report(overhead_seconds=0.0, wall_iterations=100, lost_iterations=0),
            instance="tencent",
        )
        churny = account(
            make_report(overhead_seconds=200.0, node_seconds=264.0 + 800.0),
            instance="tencent",
        )
        assert churny.savings_fraction < calm.savings_fraction

    def test_unknown_profile_rejected(self):
        with pytest.raises(KeyError):
            account(make_report(), instance="azure")
