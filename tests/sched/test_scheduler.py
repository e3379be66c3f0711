"""Scheduler behaviour: placement, preemption, autoscaling, accounting."""

import pytest

from repro.sched import JobSpec, MultiTenantScheduler, compare_policies
from repro.sched.scheduler import PAYLOAD_COLUMNS, payload_for_reports


def make_scheduler(**kwargs):
    defaults = dict(num_nodes=3, instance="tencent", gpus_per_node=8, policy="bin-pack")
    defaults.update(kwargs)
    return MultiTenantScheduler(**defaults)


class TestValidation:
    def test_duplicate_names_rejected(self):
        jobs = [JobSpec(name="a"), JobSpec(name="a")]
        with pytest.raises(ValueError, match="unique"):
            make_scheduler().run(jobs)

    def test_oversized_job_rejected(self):
        with pytest.raises(ValueError, match="GPUs/node"):
            make_scheduler(gpus_per_node=4).run([JobSpec(name="a", gpus_per_node=8)])
        with pytest.raises(ValueError, match="nodes"):
            make_scheduler(num_nodes=2).run(
                [JobSpec(name="a", min_nodes=3, max_nodes=3)]
            )

    def test_empty_queue_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            make_scheduler().run([])

    def test_unknown_policy_rejected(self):
        with pytest.raises(KeyError, match="bin-pack"):
            make_scheduler(policy="warpdrive")

    def test_duplicate_policies_rejected(self):
        # "pack" is an alias of "bin-pack": one report key, two runs.
        with pytest.raises(ValueError, match="duplicate"):
            compare_policies(
                [JobSpec(name="a", iterations=5)],
                ["bin-pack", "pack"],
                num_nodes=2,
            )

    def test_config_rejects_duplicate_and_unknown_job_fields(self):
        from repro.api.config import ConfigError, SchedConfig

        with pytest.raises(ConfigError, match="duplicate"):
            SchedConfig.from_dict(
                {"jobs": [{"name": "a"}], "policies": ["bin-pack", "pack"]}
            )
        # A scheme typo fails at validation, not mid-simulation.
        with pytest.raises(ConfigError, match="warp"):
            SchedConfig.from_dict({"jobs": [{"name": "a", "scheme": "warp"}]})


class TestBasicRuns:
    def test_single_job_completes(self):
        report = make_scheduler().run([JobSpec(name="solo", iterations=20)])
        (outcome,) = report.jobs
        assert outcome.status == "done"
        assert outcome.iterations == pytest.approx(20)
        assert outcome.queue_wait_s == 0.0
        assert outcome.contention_slowdown == pytest.approx(1.0)
        assert report.makespan_s > 0
        assert report.cluster_goodput_it_per_s > 0
        assert 0 < report.utilization <= 1

    def test_deterministic(self):
        jobs = [
            JobSpec(name="a", iterations=30, gpus_per_node=4, max_nodes=2),
            JobSpec(name="b", iterations=40, gpus_per_node=4, priority=1),
        ]
        r1 = make_scheduler().run(jobs)
        r2 = make_scheduler().run(jobs)
        assert [o.row() for o in r1.jobs] == [o.row() for o in r2.jobs]
        assert r1.summary() == r2.summary()

    def test_arrival_creates_queue_wait_when_full(self):
        # Job b arrives while a holds the whole cluster at min=max.
        jobs = [
            JobSpec(name="a", iterations=60, min_nodes=3, max_nodes=3),
            JobSpec(name="b", iterations=10, arrival_seconds=1.0),
        ]
        report = make_scheduler().run(jobs)
        b = next(o for o in report.jobs if o.job == "b")
        assert b.status == "done"
        assert b.queue_wait_s > 0
        assert report.mean_queue_wait_s > 0


class TestAutoscaling:
    def test_grow_on_idle_capacity_after_completion(self):
        # a (short) and b (long) fill the cluster; when a finishes, b
        # grows onto the freed nodes through its membership view.
        jobs = [
            JobSpec(name="a", iterations=5, min_nodes=1, max_nodes=1),
            JobSpec(name="b", iterations=400, min_nodes=1, max_nodes=3),
        ]
        report = make_scheduler().run(jobs)
        b = next(o for o in report.jobs if o.job == "b")
        assert b.status == "done"
        assert b.nodes == 3
        assert b.grows >= 1
        assert b.membership_epochs >= b.grows
        counts = [count for _, count in b.waypoints]
        assert counts[0] < counts[-1] == 3

    def test_grow_capped_at_max_nodes(self):
        report = make_scheduler().run(
            [JobSpec(name="a", iterations=10, min_nodes=1, max_nodes=2)]
        )
        (outcome,) = report.jobs
        assert outcome.nodes == 2


class TestPriorityPreemption:
    def _run(self):
        # low holds everything; the high-priority arrival needs one full
        # node, so low shrinks (warned, via its membership view).
        jobs = [
            JobSpec(name="low", iterations=300, priority=0, min_nodes=1, max_nodes=3),
            JobSpec(
                name="high",
                iterations=20,
                priority=5,
                arrival_seconds=10.0,
                min_nodes=1,
                max_nodes=1,
            ),
        ]
        return make_scheduler().run(jobs)

    def test_high_priority_preempts_via_scale_events(self):
        report = self._run()
        low = next(o for o in report.jobs if o.job == "low")
        high = next(o for o in report.jobs if o.job == "high")
        assert high.status == "done"
        assert high.queue_wait_s == 0.0  # preemption admitted it instantly
        assert low.shrinks >= 1
        assert low.membership_epochs >= low.shrinks
        # The shrink shows in the allocation trace as a node-count drop.
        counts = [count for _, count in low.waypoints]
        assert min(counts) < counts[0]

    def test_equal_priority_waits_instead_of_preempting(self):
        jobs = [
            JobSpec(name="low", iterations=60, priority=1, min_nodes=3, max_nodes=3),
            JobSpec(
                name="peer",
                iterations=10,
                priority=1,
                arrival_seconds=5.0,
                min_nodes=1,
                max_nodes=1,
            ),
        ]
        report = make_scheduler().run(jobs)
        low = next(o for o in report.jobs if o.job == "low")
        peer = next(o for o in report.jobs if o.job == "peer")
        assert low.shrinks == 0
        assert peer.queue_wait_s > 0

    def test_preemption_is_all_or_nothing(self):
        # The arrival needs two whole nodes but only one can ever be
        # freed (the other victim sits at its floor), so nobody shrinks:
        # freed capacity must not idle behind an inadmissible job.
        jobs = [
            JobSpec(name="flex", iterations=200, priority=0, min_nodes=1,
                    max_nodes=2, gpus_per_node=8),
            JobSpec(name="pinned", iterations=200, priority=0, min_nodes=1,
                    max_nodes=1, gpus_per_node=8),
            JobSpec(name="big", iterations=10, priority=9, arrival_seconds=1.0,
                    min_nodes=3, max_nodes=3, gpus_per_node=8),
        ]
        report = make_scheduler().run(jobs)
        by_job = {o.job: o for o in report.jobs}
        # flex could shed one node, but that alone can't admit big
        # (pinned is at its floor) — so no shrink happens at t=1.
        assert by_job["flex"].shrinks == 0
        assert by_job["pinned"].shrinks == 0
        assert by_job["big"].status == "done"
        assert by_job["big"].queue_wait_s > 0  # waited for completions

    def test_victims_never_shrink_below_min_nodes(self):
        jobs = [
            JobSpec(name="low", iterations=100, priority=0, min_nodes=2, max_nodes=3),
            JobSpec(
                name="big",
                iterations=10,
                priority=9,
                arrival_seconds=1.0,
                min_nodes=2,
                max_nodes=2,
            ),
        ]
        report = make_scheduler().run(jobs)
        low = next(o for o in report.jobs if o.job == "low")
        assert min(count for _, count in low.waypoints) >= 2

    def test_preempted_trace_replays_through_elastic_trainer(self):
        """Scheduler scale decisions drive the real ElasticTrainer."""
        import numpy as np

        from repro.elastic.elastic_trainer import ElasticTrainer
        from repro.models.nn.mlp import MLPClassifier
        from repro.train.synthetic import make_spiral_classification
        from repro.utils.seeding import new_rng

        report = self._run()
        low = next(o for o in report.jobs if o.job == "low")
        waypoints = list(low.waypoints)
        start_nodes = waypoints[0][1]
        # Rescale the iteration axis into a short training run while
        # preserving the node-count sequence.
        horizon = 30
        peak = max(it for it, _ in waypoints) or 1
        scaled = [
            (min(horizon - 1, int(it * (horizon - 10) / peak)), count)
            for it, count in waypoints
        ]
        from repro.elastic.events import TraceSchedule

        trace = TraceSchedule.from_deltas(scaled)

        rng = new_rng(0)
        x, y = make_spiral_classification(240, num_classes=4, rng=rng)
        model = MLPClassifier(input_dim=2, hidden=(12,), num_classes=4)
        trainer = ElasticTrainer(
            model,
            scheme="mstopk",
            density=0.1,
            num_nodes=start_nodes,
            gpus_per_node=2,
            min_nodes=1,
            seed=3,
            checkpoint_every=10,
        )
        run_report = trainer.run(
            np.asarray(x), np.asarray(y), iterations=horizon, local_batch=8,
            schedule=trace,
        )
        # The trainer's world-size history follows the scheduler's
        # allocation history (warned shrinks lose no work).
        assert run_report.useful_iterations == horizon
        assert run_report.revocations >= 1
        assert run_report.lost_iterations == 0  # all shrinks were warned
        expected_worlds = {count * 2 for _, count in scaled}
        assert expected_worlds <= set(run_report.world_sizes)
        assert run_report.world_sizes[0] == start_nodes * 2
        assert run_report.world_sizes[-1] == scaled[-1][1] * 2


class TestDeadlinesAndCost:
    def test_deadline_hit_and_miss(self):
        scheduler = make_scheduler()
        probe = scheduler.iteration_seconds(
            JobSpec(name="probe", iterations=1), nodes=2
        )
        # 100 iterations at 2 nodes: a generous deadline holds, an
        # impossible one is reported missed.
        jobs = [
            JobSpec(
                name="ok",
                iterations=100,
                deadline_seconds=probe * 1000,
                min_nodes=2,
                max_nodes=2,
            ),
            JobSpec(
                name="late",
                iterations=100,
                deadline_seconds=probe,
                min_nodes=1,
                max_nodes=1,
            ),
        ]
        report = make_scheduler().run(jobs)
        by_job = {o.job: o for o in report.jobs}
        assert by_job["ok"].deadline_met is True
        assert by_job["late"].deadline_met is False
        assert report.deadline_hit_rate == pytest.approx(0.5)

    def test_spot_cheaper_than_on_demand(self):
        spot = make_scheduler().run(
            [JobSpec(name="a", iterations=50, preference="spot")]
        )
        on_demand = make_scheduler().run(
            [JobSpec(name="a", iterations=50, preference="on-demand")]
        )
        assert spot.total_cost_usd < on_demand.total_cost_usd
        assert spot.makespan_s == on_demand.makespan_s

    def test_gpu_slice_bills_fractionally(self):
        whole = make_scheduler().run(
            [JobSpec(name="a", iterations=50, max_nodes=1)]
        )
        half = make_scheduler().run(
            [JobSpec(name="a", iterations=50, max_nodes=1, gpus_per_node=4)]
        )
        assert half.total_cost_usd < whole.total_cost_usd


class TestCanonicalQueue:
    """The shipped four-job queue (``examples/configs/multi_tenant.json``)
    under every built-in placement policy."""

    @pytest.fixture(scope="class")
    def reports(self):
        from repro.experiments.multi_tenant import run

        return run()

    def test_every_job_done_and_billed(self, reports):
        for policy, report in reports.items():
            for outcome in report.jobs:
                assert outcome.status == "done", (policy, outcome.job)
                assert outcome.cost_usd > 0

    def test_spreading_relieves_the_dense_tenant(self, reports):
        packed = next(o for o in reports["bin-pack"].jobs if o.job == "vgg-batch")
        spread = next(o for o in reports["spread"].jobs if o.job == "vgg-batch")
        assert packed.contention_slowdown > 1.02
        assert spread.contention_slowdown < packed.contention_slowdown
        assert reports["spread"].makespan_s < reports["bin-pack"].makespan_s
        assert reports["spread"].total_cost_usd <= reports["bin-pack"].total_cost_usd

    def test_late_transformer_preempts_and_meets_deadline(self, reports):
        for policy, report in reports.items():
            xfmr = next(o for o in report.jobs if o.job == "xfmr-deadline")
            assert xfmr.deadline_met is True, policy
            shrunk = [o for o in report.jobs if o.shrinks > 0]
            assert shrunk, f"{policy}: nobody was preempted for the transformer"
            for outcome in shrunk:
                assert outcome.priority < xfmr.priority
                assert outcome.membership_epochs >= outcome.shrinks


class TestPayload:
    def test_bench_payload_schema(self):
        reports = compare_policies(
            [
                JobSpec(name="a", iterations=20, gpus_per_node=4, max_nodes=2),
                JobSpec(name="b", iterations=20, gpus_per_node=4, max_nodes=2),
                JobSpec(name="c", iterations=10, arrival_seconds=5.0, priority=2),
            ],
            ["bin-pack", "spread"],
            num_nodes=3,
            gpus_per_node=8,
            name="unit",
        )
        payload = payload_for_reports(list(reports.values()), bench="sched_unit")
        assert payload["bench"] == "sched_unit"
        assert payload["schema_version"] == 1
        assert payload["structured"] is True
        assert payload["columns"] == PAYLOAD_COLUMNS
        assert len(payload["rows"]) == 6  # 3 jobs x 2 policies
        for row in payload["rows"]:
            assert len(row) == len(PAYLOAD_COLUMNS)
            for cell in row:
                assert cell is None or isinstance(cell, (str, int, float, bool))
        assert payload["meta"]["policies"] == ["bin-pack", "spread"]
        assert set(payload["meta"]["summary"]) == {"bin-pack", "spread"}
        assert payload["text"].endswith("\n")

    def test_single_report_payload_and_format(self):
        report = make_scheduler().run([JobSpec(name="a", iterations=10)])
        payload = report.bench_payload()
        assert payload["bench"] == "sched_sched"
        assert "a" in report.format()
