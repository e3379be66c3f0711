"""What one scheduler event costs, counted rather than timed.

An event must cost what it touched, not what is running or queued: a
running job is re-priced only when a placement, release or fault names
it, a placement shape that was refused is not retried until the cluster
changes, and feasibility is a count unless a placement is actually
made.  Counts are deterministic, so this gates the property on any
hardware — the build that re-priced and re-tried everything at every
event exceeds every ceiling below several times over.
"""

import pytest

from tests.sched.invariants import storm_day


def counting(fn, counts, key):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


@pytest.fixture(scope="module")
def replay():
    # Dense enough that ~35 jobs run at once: the gap between "what an
    # event touched" and "everything running" is what is being gated.
    scheduler, specs = storm_day(600, arrive_within=8_000.0, num_nodes=16)
    counts = dict.fromkeys(("iteration_seconds", "try_preempt", "feasible_nodes", "policy"), 0)
    scheduler.iteration_seconds = counting(scheduler.iteration_seconds, counts, "iteration_seconds")
    scheduler._try_preempt = counting(scheduler._try_preempt, counts, "try_preempt")
    scheduler.policy = counting(scheduler.policy, counts, "policy")
    run = scheduler.start()
    run.state.feasible_nodes = counting(run.state.feasible_nodes, counts, "feasible_nodes")
    for spec in specs:
        run.submit(spec)
    assert run.drain(10_000) is not None
    return counts, scheduler.report(run)


def test_the_day_exercises_every_path(replay):
    _, report = replay
    assert report.summary()["jobs_done"] == 600
    assert report.fault_log["requeues"] > 0
    assert sum(o.shrinks for o in report.jobs) > report.brain_log["shrinks"] > 0
    assert sum(o.grows for o in report.jobs) > 0


def test_an_event_costs_what_it_touched(replay):
    counts, _ = replay
    # Twice what the event-incremental loop needs on this day (8 333 and
    # 678); re-pricing every running job at every event takes 94 912,
    # building the candidate list for every attempt 17 299.
    assert counts["iteration_seconds"] <= 16_700
    assert counts["feasible_nodes"] <= 1_400
    # A refusal is only remembered until the next cluster transition, and
    # most events are one, so this ceiling is tight (3 706 needed, 15 %
    # headroom); retrying every queued shape at every event takes 5 361.
    assert counts["try_preempt"] <= 4_260


def test_what_the_day_decides_does_not_move(replay):
    counts, report = replay
    assert counts["policy"] == 647
    assert report.events == 1265
    assert report.fault_log["events"] == 68
    assert [report.brain_log[kind] for kind in ("migrations", "grows", "shrinks")] == [0, 0, 43]


def test_a_run_prices_each_cluster_slice_once(monkeypatch):
    """The network and the PTO (LARS) term depend on (profile, nodes,
    GPUs per node) only, so one run builds each once; the build that
    rebuilt both at every price miss made 1 904 of each in a serve soak
    with 379 distinct slices."""
    from repro.api import registry
    from repro.perf.iteration_model import IterationModel

    slices, networks = [], []
    real_t_lars, real_build_cluster = IterationModel.t_lars, registry.build_cluster

    def t_lars(model):
        slices.append((model.profile.name, model.network.num_nodes, model.network.gpus_per_node))
        return real_t_lars(model)

    def build_cluster(*args, **kwargs):
        networks.append(args)
        return real_build_cluster(*args, **kwargs)

    monkeypatch.setattr(IterationModel, "t_lars", t_lars)
    monkeypatch.setattr(registry, "build_cluster", build_cluster)
    scheduler, specs = storm_day(150, arrive_within=4_000.0)
    for _ in range(2):  # a second run starts from empty memos
        report = scheduler.run(specs)
        assert report.summary()["jobs_done"] == 150
        assert len(slices) == len(set(slices)) == len(networks) > 10
        assert len({profile for profile, _, _ in slices}) > 1
        assert len({nodes for _, nodes, _ in slices}) > 1
        slices.clear()
        networks.clear()
