"""Stated invariants of a :class:`~repro.sched.core.SchedRun`, checkable
after any ``step()``.  Shared by ``tests/sched`` and ``tests/property``.
"""

from repro.sched.job import DONE, QUEUED, RUNNING


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
    return run.now
