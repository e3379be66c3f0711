"""The FaultWindows ledger's contract, against a real FaultLog."""

import pytest

from repro.faults.log import FaultLog
from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.windows import FAMILIES, FaultWindows


def _event(fault_id, at=0.0, duration=10.0, kind="nic-degrade"):
    return FaultEvent(fault_id=fault_id, kind=kind, at=at, duration=duration)


def _ledger(events=(), *, target="sched", expiry_eps=1e-12):
    plan = FaultPlan(seed=1, target=target, events=tuple(events))
    return FaultWindows(plan, FaultLog(), expiry_eps=expiry_eps)


def _recovers(ledger):
    return [
        (e["fault_id"], e.get("detail", {}).get("node"), e["detail"]["action"])
        for e in ledger.log.to_dicts()
        if e["phase"] == "recover"
    ]


# (windows to open as (family, fault_id, node), the recover order expected
# when all of them end at once: (fault_id, node))
SWEEP_ORDER = [
    pytest.param(
        [("nic", 3, None), ("nic", 1, None), ("nic", 2, None)],
        [(3, None), (1, None), (2, None)],
        id="stacked-close-in-open-order",
    ),
    pytest.param(
        [("straggler", 1, 5), ("straggler", 2, 0), ("straggler", 3, 2)],
        [(2, 0), (3, 2), (1, 5)],
        id="node-keyed-close-in-ascending-node-order",
    ),
    pytest.param(
        [("disk", 1, None), ("gray", 2, 4), ("straggler", 3, 1), ("nic", 4, None)],
        [(4, None), (3, 1), (2, 4), (1, None)],
        id="families-in-fixed-order",
    ),
    pytest.param(
        [("gray", 1, 7), ("gray", 2, 7)],
        [(2, 7)],
        id="reopening-a-node-replaces-silently",
    ),
]


@pytest.mark.parametrize("opened, expected", SWEEP_ORDER)
def test_sweep_order(opened, expected):
    ledger = _ledger()
    for family, fault_id, node in opened:
        ledger.open(family, _event(fault_id), 2.0, node)
    ledger.expire(10.0, 10.0)
    closed = _recovers(ledger)
    assert [(fid, node) for fid, node, _ in closed] == expected
    families = {fid: family for family, fid, _ in opened}
    assert [action for _, _, action in closed] == [
        FAMILIES[families[fid]] for fid, _ in expected
    ]
    assert ledger.recovered == len(expected)
    assert not any(ledger.tables.values())
    assert list(ledger.boundaries()) == []


def test_permanent_window_is_never_a_boundary_and_never_closes():
    ledger = _ledger()
    ledger.open("nic", _event(1, duration=0.0), 0.5)
    ledger.open("straggler", _event(2, duration=0.0), 2.0, node=3)
    assert list(ledger.boundaries()) == []
    ledger.expire(1e300, 0.0)
    assert len(ledger.tables["nic"]) == 1 and 3 in ledger.tables["straggler"]
    assert ledger.recovered == 0 and len(ledger.log) == 0


# (at - clock, taken?)
@pytest.mark.parametrize("offset, due", [(0.0, True), (5e-13, True), (1e-9, False)])
@pytest.mark.parametrize("expiry_eps", [0.0, 1e-12])
def test_pop_due_slack_is_fixed(offset, due, expiry_eps):
    clock = 100.0
    ledger = _ledger([_event(1, at=clock + offset)], expiry_eps=expiry_eps)
    assert [e.fault_id for e in ledger.pop_due(clock)] == ([1] if due else [])
    assert len(ledger.pending) == (0 if due else 1)
    assert list(ledger.boundaries()) == ([] if due else [clock + offset])


# (expiry_eps, until - wall, closed?)
@pytest.mark.parametrize(
    "expiry_eps, offset, closed",
    [(0.0, 0.0, True), (0.0, 5e-13, False), (1e-12, 0.0, True), (1e-12, 5e-13, True)],
)
def test_expiry_slack_is_the_adapters(expiry_eps, offset, closed):
    wall = 1.0
    ledger = _ledger(expiry_eps=expiry_eps)
    ledger.open("nic", _event(1, at=0.0, duration=wall + offset), 0.5)
    assert list(ledger.boundaries()) == [wall + offset]
    ledger.expire(wall, 7.0)
    assert ledger.recovered == (1 if closed else 0)
    assert bool(ledger.tables["nic"]) == (not closed)
    if closed:
        (entry,) = ledger.log.to_dicts()
        assert entry["t"] == 7.0 and entry["phase"] == "recover"


def test_pending_events_pop_in_plan_order_and_head_is_the_boundary():
    events = [_event(1, at=1.0), _event(2, at=1.0), _event(3, at=4.0)]
    ledger = _ledger(events)
    assert list(ledger.boundaries()) == [1.0]
    assert [e.fault_id for e in ledger.pop_due(2.0)] == [1, 2]
    assert list(ledger.boundaries()) == [4.0]
    assert [e.fault_id for e in ledger.pop_due(4.0)] == [3]
    assert list(ledger.boundaries()) == []


@pytest.mark.parametrize("target", ["run", "sched"])
def test_entries_carry_the_plans_target_and_counters_count_calls(target):
    ledger = _ledger(target=target)
    a, b = _event(1, kind="straggler"), _event(2, kind="gray-net")
    ledger.inject(a, 1.0, node=3, stretch=2.0)
    ledger.emit("detect", a, 1.0, source="telemetry")
    ledger.inject(b, 2.0, node=None)  # a None node stays out of the detail
    ledger.absorb(b, 2.0, "node 9 not up")
    ledger.recover(a, 3.0, action="done")
    entries = ledger.log.to_dicts()
    assert [e["phase"] for e in entries] == [
        "inject", "detect", "inject", "absorb", "recover"
    ]
    assert {e["target"] for e in entries} == {target}
    assert [(e["kind"], e["fault_id"]) for e in entries] == [
        ("straggler", 1), ("straggler", 1), ("gray-net", 2), ("gray-net", 2),
        ("straggler", 1),
    ]
    assert entries[0]["detail"] == {"node": 3, "stretch": 2.0}
    assert "detail" not in entries[2]
    assert entries[3]["detail"] == {"reason": "node 9 not up"}
    assert (ledger.injected, ledger.absorbed, ledger.recovered) == (2, 1, 1)
