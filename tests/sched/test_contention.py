"""Bandwidth contention: shared links degrade co-located jobs realistically."""

import pytest

from repro.cluster.cloud_presets import make_cluster
from repro.models.profiles import vgg19_profile
from repro.perf.iteration_model import IterationModel
from repro.sched import JobSpec, MultiTenantScheduler


class TestContendedNetwork:
    def test_splits_inter_bandwidth(self):
        network = make_cluster(4, "tencent")
        shared = network.contended(2)
        assert shared.inter.bandwidth == pytest.approx(network.inter.bandwidth / 2)
        assert shared.inter.alpha == network.inter.alpha

    def test_intra_link_untouched(self):
        network = make_cluster(4, "tencent")
        assert network.contended(3).intra == network.intra

    def test_identity_and_validation(self):
        network = make_cluster(2, "tencent")
        assert network.contended(1) is network
        with pytest.raises(ValueError, match="tenants"):
            network.contended(0.5)

    def test_fractional_tenancy(self):
        network = make_cluster(2, "tencent")
        part_time = network.contended(1.5)
        assert part_time.inter.bandwidth == pytest.approx(
            network.inter.bandwidth / 1.5
        )


class TestContendedIterationModel:
    def _model(self, scheme, contention):
        return IterationModel(
            network=make_cluster(2, "tencent"),
            profile=vgg19_profile(),
            scheme=scheme,
            resolution=224,
            local_batch=64,
            density=0.001,
            contention=contention,
        )

    @pytest.mark.parametrize("scheme", ["dense", "2dtar", "topk", "mstopk"])
    def test_contention_slows_every_scheme(self, scheme):
        solo = self._model(scheme, 1.0).iteration_time()
        duo = self._model(scheme, 2.0).iteration_time()
        quad = self._model(scheme, 4.0).iteration_time()
        assert solo < duo < quad

    def test_only_comm_terms_stretch(self):
        solo = self._model("dense", 1.0).breakdown()
        duo = self._model("dense", 2.0).breakdown()
        assert duo.get("communication") > solo.get("communication")
        for untouched in ("io", "ff_bp", "compression", "sync"):
            assert duo.get(untouched) == solo.get(untouched)

    def test_dense_hurts_more_than_mstopk(self):
        """The comm-heavy scheme pays the larger co-location tax."""

        def slowdown(scheme):
            return self._model(scheme, 2.0).iteration_time() / self._model(
                scheme, 1.0
            ).iteration_time()

        assert slowdown("dense") > slowdown("mstopk")

    def test_contention_validated(self):
        with pytest.raises(ValueError, match="contention"):
            self._model("dense", 0.0)


class TestSchedulerContention:
    def _jobs(self):
        # Two 2-node 4-GPU dense VGG jobs on 8-GPU nodes: bin-pack
        # co-locates them on nodes {0, 1} (shared NICs), spread gives
        # each job its own node pair.  Contention only matters across
        # nodes, so the jobs must actually span nodes.
        return [
            JobSpec(
                name=f"vgg-{i}",
                profile="vgg19",
                scheme="dense",
                iterations=50,
                min_nodes=2,
                max_nodes=2,
                gpus_per_node=4,
            )
            for i in range(2)
        ]

    def _run(self, policy):
        scheduler = MultiTenantScheduler(
            num_nodes=4, instance="tencent", gpus_per_node=8, policy=policy
        )
        return scheduler.run(self._jobs())

    def test_colocated_jobs_slower_than_solo(self):
        packed = self._run("bin-pack")
        for outcome in packed.jobs:
            assert outcome.contention_slowdown > 1.0
        spread = self._run("spread")
        for outcome in spread.jobs:
            assert outcome.contention_slowdown == pytest.approx(1.0)

    def test_spreading_improves_jct_and_goodput(self):
        packed = self._run("bin-pack")
        spread = self._run("spread")
        for job in ("vgg-0", "vgg-1"):
            packed_job = next(o for o in packed.jobs if o.job == job)
            spread_job = next(o for o in spread.jobs if o.job == job)
            assert spread_job.jct_s < packed_job.jct_s
            assert spread_job.goodput_it_per_s > packed_job.goodput_it_per_s
        assert spread.makespan_s < packed.makespan_s

    def test_slowdown_matches_iteration_model(self):
        """The scheduler's slowdown is the iteration model's, exactly."""
        packed = self._run("bin-pack")
        scheduler = MultiTenantScheduler(
            num_nodes=2, instance="tencent", gpus_per_node=8, policy="bin-pack"
        )
        spec = self._jobs()[0]
        solo = scheduler.iteration_seconds(spec, nodes=2, contention=1.0)
        shared = scheduler.iteration_seconds(spec, nodes=2, contention=2.0)
        expected = shared / solo
        for outcome in packed.jobs:
            assert outcome.contention_slowdown == pytest.approx(expected)
