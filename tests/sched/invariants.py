"""Stated invariants of a :class:`~repro.sched.core.SchedRun`, checkable
after any ``step()``.  Shared by ``tests/sched`` and ``tests/property``.
"""

from repro.brain.base import BrainConfig
from repro.faults.plan import FaultPlan
from repro.sched import MultiTenantScheduler
from repro.sched.job import DONE, QUEUED, RUNNING
from repro.sched.traces import SyntheticTraceConfig, generate_trace, trace_to_specs

#: The e2e benchmark's fault mix on a shorter period (so a 300-job day
#: sees every kind several times) plus a straggler, which it lacks.
STORM = {
    "events": [
        {"kind": "node-crash", "at": 1800, "duration": 1200, "repeat": 20, "period": 4000},
        {"kind": "gray-net", "at": 900, "duration": 2400, "loss_rate": 0.1, "jitter": 0.8,
         "repeat": 12, "period": 7000},
        {"kind": "nic-degrade", "at": 2700, "duration": 1800, "scale": 0.5, "repeat": 10,
         "period": 8000},
        {"kind": "straggler", "at": 3300, "duration": 2000, "stretch": 1.7, "repeat": 8,
         "period": 9000},
        {"kind": "az-reclaim", "at": 40000, "duration": 1800, "fraction": 0.25},
    ]
}


def storm_day(
    num_jobs: int = 300, seed: int = 11, arrive_within: float = 30_000.0, **scheduler_kwargs
):
    """A seeded ``generate_trace`` day with its arrivals packed into
    ``arrive_within`` seconds, on a cluster small enough that the
    backlog queues and preempts, under ``fault-aware`` placement with
    :data:`STORM` and the ``health-migrate`` brain: ``(scheduler, specs)``."""
    config = SyntheticTraceConfig(num_jobs=num_jobs, seed=seed, duration_seconds=arrive_within)
    specs = trace_to_specs(generate_trace(config))
    kwargs = dict(
        num_nodes=8,
        gpus_per_node=8,
        policy="fault-aware",
        seed=seed,
        faults=FaultPlan.from_config(STORM, seed=seed, target="sched"),
        brain=BrainConfig(name="health-migrate", interval=600),
    )
    kwargs.update(scheduler_kwargs)
    return MultiTenantScheduler(**kwargs), specs


def drop_caches(run) -> None:
    """Forget everything derived, in place: what a snapshot restore does
    to the run's memoisation and to ``ClusterState``'s."""
    scheduler = run.scheduler
    run.state.__setstate__(run.state.__getstate__())
    run.__setstate__(run.__getstate__())
    run.scheduler = scheduler


def price_from_scratch(run, record) -> tuple:
    """``(busy rate, solo rate, USD/hour)`` of a running job, computed from
    nothing but the cluster, the fault driver and the scheduler's pricing
    functions — the reference every price the run holds must equal."""
    scheduler, faults = run.scheduler, run.faults
    nodes = record.nodes
    contention = run.state.contention_for(nodes)
    nic_scale = faults.active_nic_scale() if faults is not None else 1.0
    stretch = faults.stretch_for(nodes) if faults is not None else 1.0
    jitter = faults.jitter_for(nodes) if faults is not None else 1.0
    busy = scheduler.iteration_seconds(
        record.spec,
        nodes=len(nodes),
        contention=contention,
        nic_scale=nic_scale,
        stretch=stretch,
        jitter=jitter,
    )
    solo = (
        busy
        if contention <= 1 and nic_scale >= 1 and stretch <= 1 and jitter <= 1
        else scheduler.iteration_seconds(record.spec, nodes=len(nodes), contention=1.0)
    )
    return (1.0 / busy, 1.0 / solo, scheduler.hourly_rate(record.spec, len(nodes)))


def check_invariants(run, prev_now: float = 0.0) -> float:
    """Assert every core invariant on ``run``; returns ``run.now``.

    Pass the previous call's return value as ``prev_now`` to also check
    that virtual time never went backwards in between.
    """
    state, scheduler = run.state, run.scheduler

    assert run.now >= prev_now, f"clock went backwards: {prev_now} -> {run.now}"

    # Every record is in exactly one of pending / queued / running / done,
    # and its status says the same.
    where = {}
    for label, status, members in (
        ("pending", QUEUED, run.pending),
        ("queued", QUEUED, run.queued),
        ("running", RUNNING, run.running),
        ("done", DONE, run.done),
    ):
        for record in members:
            name = record.spec.name
            assert name not in where, f"{name} is in both {where[name]} and {label}"
            assert run.records[name] is record
            assert record.status == status, (name, label, record.status)
            where[name] = label
    assert where.keys() == run.records.keys()

    # GPU conservation: per node, allocated + free = capacity; a down
    # node holds nothing; only running jobs hold anything.
    holdings: dict[str, dict[int, int]] = {}
    for node in range(state.num_nodes):
        occupants = state.occupants_of(node)
        assert sum(occupants.values()) + state.free_gpus(node) == state.gpus_per_node
        assert state.free_gpus(node) >= 0
        if not state.is_up(node):
            assert not occupants, f"down node {node} still hosts {sorted(occupants)}"
        for name, gpus in occupants.items():
            holdings.setdefault(name, {})[node] = gpus
    assert holdings.keys() == {r.spec.name for r in run.running}

    for record in run.records.values():
        spec = record.spec
        assert 0.0 <= record.progress <= spec.iterations, (spec.name, record.progress)
        if where[spec.name] == "running":
            # The record's allocation and the cluster's agree, inside
            # the job's gang window.
            assert len(set(record.nodes)) == len(record.nodes)
            assert spec.min_nodes <= len(record.nodes) <= spec.max_nodes
            gpus = scheduler.job_gpus(spec)
            assert holdings[spec.name] == {node: gpus for node in record.nodes}
        elif where[spec.name] == "done":
            assert spec.iterations - record.progress <= 1e-9
            assert record.completion is not None and record.completion <= run.now
        else:
            assert not record.nodes, f"{spec.name} waits but holds {record.nodes}"

    # What ClusterState derives from the occupancy equals a recount.
    assert state.busy_nodes() == sum(
        1 for node in range(state.num_nodes) if state.occupants_of(node)
    )
    for gpus in {scheduler.job_gpus(r.spec) for r in run.records.values()} | {1}:
        assert state.feasible_count(gpus) == len(state.feasible_nodes(gpus)), gpus

    # A price is held only for a running job (or one a transition has
    # named since, which the next busy event forgets), and every held
    # price the loop would still trust equals the from-scratch one.
    running = {r.spec.name: r for r in run.running}
    assert run.prices.keys() <= running.keys() | state.touched
    inputs = run.faults.pricing_inputs() if run.faults is not None else ()
    if inputs == run.priced_inputs:
        for name, price in run.prices.items():
            if name not in state.touched:
                assert price == price_from_scratch(run, running[name]), name
    return run.now
