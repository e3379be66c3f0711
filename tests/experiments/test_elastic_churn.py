"""Elastic churn harness: the qualitative story must hold at small scale."""

from repro.experiments import elastic_churn


class TestElasticChurn:
    def test_sweep_shapes_and_headline(self):
        results = elastic_churn.run(
            schemes=("dense", "mstopk"),
            rates=(0.0, 0.02),
            iterations=40,
            num_samples=256,
            checkpoint_every=10,
            sigma=0.0,
            seed=11,
        )
        assert set(results) == {
            ("dense", 0.0),
            ("dense", 0.02),
            ("mstopk", 0.0),
            ("mstopk", 0.02),
        }
        # Same churn schedule per rate across schemes.
        dense_churn, dense_cost = results[("dense", 0.02)]
        hitopk_churn, hitopk_cost = results[("mstopk", 0.02)]
        assert dense_churn.revocations == hitopk_churn.revocations
        assert dense_churn.world_sizes == hitopk_churn.world_sizes
        # The churny setting really churns: >= 1 revocation per 100
        # iterations, and at least one.
        assert dense_churn.revocations >= max(1, dense_churn.wall_iterations // 100)
        # Headline: the hierarchical scheme keeps its goodput advantage
        # with and without churn, and it shows in $ per useful iteration.
        for rate in (0.0, 0.02):
            dense_report, _ = results[("dense", rate)]
            hitopk_report, _ = results[("mstopk", rate)]
            assert hitopk_report.goodput > dense_report.goodput
        assert hitopk_cost.cost_per_kilo_iteration < dense_cost.cost_per_kilo_iteration
        for report, cost in results.values():
            assert report.goodput > 0
            assert 0 <= report.lost_fraction < 1
            assert cost.spot_cost > 0

    def test_small_run_completes(self):
        results = elastic_churn.run(
            schemes=("dense",),
            rates=(0.0,),
            iterations=10,
            num_samples=128,
            checkpoint_every=5,
            sigma=0.0,
        )
        assert results[("dense", 0.0)][0].useful_iterations == 10
