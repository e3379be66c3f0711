"""The event-loop core driven directly: submit / step / drain, with the
stated invariants asserted after every single step."""

import json
import pathlib

import pytest

from repro.api.config import SchedConfig
from repro.faults.plan import FaultPlan
from repro.sched import JobSpec, MultiTenantScheduler
from repro.sched.core import SchedRun
from repro.sched.policies import ClusterState
from repro.sched.traces import distribution_rows, job_specs_for
from repro.serve.engine import _record_state
from tests.sched.invariants import check_invariants, drop_caches, storm_day

REPO = pathlib.Path(__file__).resolve().parents[2]

#: GPU slices that co-locate, a high-priority gang that must preempt
#: (4 shrinks), and elastic windows that grow back once it is gone.
PLAIN = {
    "name": "plain",
    "cluster": {"instance": "tencent", "num_nodes": 4, "gpus_per_node": 4},
    "policies": ["bin-pack"],
    "jobs": [
        {"name": "wide", "iterations": 2500, "min_nodes": 1, "max_nodes": 4,
         "gpus_per_node": 2},
        {"name": "slice", "profile": "vgg19", "scheme": "dense", "iterations": 900,
         "min_nodes": 1, "max_nodes": 2, "gpus_per_node": 2, "arrival_seconds": 5.0},
        {"name": "late", "iterations": 80, "min_nodes": 2, "max_nodes": 2,
         "gpus_per_node": 1, "arrival_seconds": 30.0},
        {"name": "urgent", "scheme": "topk", "iterations": 150, "priority": 2,
         "min_nodes": 3, "max_nodes": 4, "arrival_seconds": 12.0},
    ],
}


def gray_storm() -> dict:
    """The committed gray storm (crash flap train, straggler, gray link,
    AZ reclaim) with the health-migrate brain riding along: a requeue,
    a migration and brain shrinks all land in one run."""
    doc = json.loads((REPO / "examples/configs/gray_storm.json").read_text())
    doc["policies"] = ["fault-aware"]
    doc["brain"] = {"name": "health-migrate", "interval": 60}
    return doc


def build(doc) -> tuple[MultiTenantScheduler, list[JobSpec]]:
    config = SchedConfig.from_dict(doc)
    scheduler = MultiTenantScheduler(
        num_nodes=config.cluster.num_nodes,
        instance=config.cluster.instance,
        gpus_per_node=config.cluster.gpus_per_node,
        policy=config.policies[0],
        seed=config.seed,
        name=config.name,
        faults=(
            FaultPlan.from_config(config.faults, seed=config.seed, target="sched")
            if config.faults is not None
            else None
        ),
        brain=config.brain,
    )
    return scheduler, job_specs_for(config)


FIXTURES = {"plain": lambda: PLAIN, "faults+brain": gray_storm}


@pytest.mark.parametrize("fixture", FIXTURES)
class TestInvariantsEveryStep:
    def test_unbounded_steps_hold_invariants_and_match_run(self, fixture):
        scheduler, jobs = build(FIXTURES[fixture]())
        run = scheduler.start()
        for job in jobs:
            run.submit(job)
        now = check_invariants(run)
        steps = 0
        while run.pending or len(run.queued) or run.running:
            if run.step() is None:
                break
            now = check_invariants(run, now)
            steps += 1
            assert steps < 10_000
        assert len(run.done) == len(jobs)
        stepped = scheduler.report(run)
        batch = scheduler.run(jobs)
        assert [o.row() for o in stepped.jobs] == [o.row() for o in batch.jobs]
        assert stepped.summary() == batch.summary()
        assert stepped.fault_log == batch.fault_log
        assert stepped.brain_log == batch.brain_log

    def test_bounded_steps_never_pass_until(self, fixture):
        scheduler, jobs = build(FIXTURES[fixture]())
        run = scheduler.start()
        # Half the jobs up front, the rest submitted while the clock runs.
        for job in jobs[::2]:
            run.submit(job)
        late = list(jobs[1::2])
        now = check_invariants(run)
        until = 0.0
        for _ in range(400):
            until += 7.5
            while run.now < until - 1e-9:
                completed = run.step(until)
                assert completed is not None  # a bounded step always returns
                assert run.now <= until + 1e-9
                now = check_invariants(run, now)
            if late and late[0].arrival_seconds <= until:
                run.submit(late.pop(0))
                now = check_invariants(run, now)
        assert not late
        run.drain(10_000)
        check_invariants(run, now)
        assert len(run.done) == len(jobs)


class TestTheCheckerItself:
    def test_a_leaked_gpu_and_a_double_booked_record_are_caught(self):
        scheduler, jobs = build(PLAIN)
        run = scheduler.start()
        for job in jobs:
            run.submit(job)
        run.step()
        check_invariants(run)
        run.state.release("wide", [run.records["wide"].nodes[0]])  # cluster forgets
        with pytest.raises(AssertionError):
            check_invariants(run)
        run.state.place("wide", [run.records["wide"].nodes[0]], 2)
        check_invariants(run)
        run.done.append(run.running[0])  # one record, two sets
        with pytest.raises(AssertionError, match="both running and done"):
            check_invariants(run)

    def test_a_stale_price_and_a_miscounted_cluster_are_caught(self):
        scheduler, jobs = build(PLAIN)
        run = scheduler.start()
        for job in jobs:
            run.submit(job)
        while len(run.running) < 2:
            run.step()
        check_invariants(run)
        rate, solo_rate, hourly = run.prices["wide"]
        run.prices["wide"] = (rate * 2, solo_rate, hourly)  # nothing touched it
        with pytest.raises(AssertionError, match="wide"):
            check_invariants(run)
        run.prices["wide"] = (rate, solo_rate, hourly)
        run.prices["ghost"] = (rate, solo_rate, hourly)  # a price nobody runs under
        with pytest.raises(AssertionError):
            check_invariants(run)
        del run.prices["ghost"]
        check_invariants(run)
        run.state._busy += 1
        with pytest.raises(AssertionError):
            check_invariants(run)
        run.state._busy -= 1
        run.state._feasible[1] = 0  # a memo that outlived its version
        with pytest.raises(AssertionError):
            check_invariants(run)


def core_view(run) -> tuple:
    return (
        run.now,
        run.events,
        run.occupied_node_seconds,
        {name: _record_state(record) for name, record in run.records.items()},
    )


class TestDerivedCaches:
    """Prices, refused admissions, the preemption budget and
    ``ClusterState``'s counters are memoisation: forgetting them at any
    point — which is what a snapshot restore does — changes nothing."""

    @pytest.mark.parametrize("tick", [None, 450.0], ids=["drain", "ticks"])
    def test_forgetting_everything_before_every_step_changes_nothing(self, tick):
        (scheduler, specs), (twin_scheduler, _) = storm_day(), storm_day()
        run, amnesiac = scheduler.start(), twin_scheduler.start()
        for spec in specs:
            run.submit(spec)
            amnesiac.submit(spec)
        now, until, steps = 0.0, tick, 0
        while run.pending or len(run.queued) or run.running:
            drop_caches(amnesiac)
            completed = run.step(until)
            assert amnesiac.step(until) == completed
            assert core_view(amnesiac) == core_view(run)
            now = check_invariants(run, now)
            if tick is not None and run.now >= until - 1e-9:
                until += tick
            steps += 1
            assert steps < 5_000
        assert run.refused and run.spare[0] >= 0  # the memos were in play
        report, twin = scheduler.report(run), twin_scheduler.report(amnesiac)
        assert report.summary()["jobs_done"] == len(specs)
        assert report.fault_log["requeues"] and report.brain_log["shrinks"]
        assert distribution_rows([report]) == distribution_rows([twin])
        assert (report.fault_log, report.brain_log) == (twin.fault_log, twin.brain_log)

    def test_no_cache_enters_a_pickle(self):
        import pickle

        scheduler, specs = storm_day()
        run = scheduler.start()
        for spec in specs:
            run.submit(spec)
        while not (run.prices and run.refused and run.state.touched):
            run.step()
        assert run.state.version > 0 and run.spare[0] >= 0
        derived = {"scheduler", *SchedRun._DERIVED, *ClusterState._DERIVED}
        assert not derived & run.__getstate__().keys()
        assert not derived & run.state.__getstate__().keys()
        blob = pickle.dumps(run)
        for name in ("priced_inputs", "refused", "touched", "_feasible"):
            assert name.encode() not in blob
        clone = pickle.loads(blob)
        assert (clone.prices, clone.refused, clone.spare) == ({}, {}, (-1, {}))
        assert (clone.state.version, clone.state.touched) == (0, set())
        clone.scheduler = scheduler
        check_invariants(clone)  # busy_nodes was recounted
        assert clone.state.busy_nodes() == run.state.busy_nodes() > 0

    def test_a_job_accrued_to_its_cap_holds_the_int_itself(self):
        # min(iterations, x) returns the *int* on a tie; payload rows
        # print 5000, not 5000.0, and every pinned digest depends on it.
        run = MultiTenantScheduler(num_nodes=2, gpus_per_node=4).start()
        record = run.submit(JobSpec(name="a", iterations=5000))
        run.step(until=1.0)
        assert 0.0 < record.progress < 5000
        record.progress = 5000.0  # accrual lands exactly on the cap
        assert run.step() == ["a"]
        assert record.progress is record.spec.iterations


class TestCoreApi:
    def scheduler(self, **kwargs):
        return MultiTenantScheduler(num_nodes=2, gpus_per_node=4, **kwargs)

    def test_submit_rejects_what_the_cluster_can_never_run(self):
        run = self.scheduler().start()
        run.submit(JobSpec(name="a"))
        with pytest.raises(ValueError, match="'a' was already submitted"):
            run.submit(JobSpec(name="a"))
        with pytest.raises(ValueError, match="wants 8 GPUs/node on 4-GPU nodes"):
            run.submit(JobSpec(name="b", gpus_per_node=8))
        with pytest.raises(ValueError, match="needs 3 nodes, cluster has 2"):
            run.submit(JobSpec(name="c", min_nodes=3, max_nodes=3))
        assert list(run.records) == ["a"]

    def test_pending_stays_in_arrival_order(self):
        run = self.scheduler().start()
        for name, arrival, priority in (("c", 9.0, 0), ("a", 1.0, 0), ("b", 1.0, 3)):
            run.submit(JobSpec(name=name, arrival_seconds=arrival, priority=priority))
        assert [r.spec.name for r in run.pending] == ["b", "a", "c"]

    def test_drain_reports_an_unsettled_cap_and_counts_every_event(self):
        run = self.scheduler().start()
        run.submit(JobSpec(name="a", iterations=50))
        run.submit(JobSpec(name="b", iterations=50, arrival_seconds=500.0))
        assert run.drain(1) is None  # one event cannot settle two arrivals
        assert run.events == 1 and [r.spec.name for r in run.done] == ["a"]
        assert run.drain(10_000) == ["b"]
        assert run.drain(10_000) == []  # nothing left: no event is spent
        events = run.events
        assert run.step() is None and run.events == events + 1

    def test_step_returns_none_when_nothing_can_ever_progress(self):
        plan = FaultPlan.from_config(
            {"events": [{"kind": "node-crash", "at": 0, "node": 0},
                        {"kind": "node-crash", "at": 0, "node": 1}]},
            seed=0, target="sched",
        )
        run = self.scheduler(faults=plan).start()
        run.submit(JobSpec(name="stuck", iterations=10))
        assert run.step() is None  # both nodes are down for good
        assert run.drain(100) == [] and not run.done
        # A service idles instead: bounded steps still move the clock.
        assert run.step(until=60.0) == [] and run.now == 60.0
        check_invariants(run)

    def test_run_pickles_whole_without_the_scheduler(self):
        import pickle

        scheduler, jobs = build(gray_storm())
        run = scheduler.start()
        for job in jobs:
            run.submit(job)
        while run.now < 200.0:
            run.step(200.0)
        clone = pickle.loads(pickle.dumps(run))
        assert not hasattr(clone, "scheduler")
        clone.scheduler = scheduler
        assert clone.state.health is clone.faults.health  # shared refs survive
        run.drain(10_000)
        clone.drain(10_000)
        assert scheduler.report(run) == scheduler.report(clone)
