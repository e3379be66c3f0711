"""Property: one core under any interleaving of service ops.

A hypothesis state machine feeds the same random op stream — submits,
ticks, duplicate-id resends — to two :class:`ServeEngine`\\ s, one of
which is also torn down and rebuilt from a pickled snapshot, or made to
forget its core's derived caches, at random points.  After every op
both must satisfy the core invariants
(``tests/sched/invariants.py``) and agree on :meth:`state_digest` and
on the chained ``witness``: a restore mid-stream changes no later digest
and continues the chain.  Every run ends with a drain that must finish
every accepted job, and with a third engine replaying the op list from
genesis (the journal-replay path) onto the same witness and digest.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")  # optional dep; CI installs it in brain-smoke

import pickle

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.api.config import ServeConfig
from repro.serve.engine import ServeEngine
from tests.sched.invariants import check_invariants, drop_caches

CONFIG = ServeConfig.from_dict(
    {
        "name": "machine",
        "seed": 5,
        "cluster": {"instance": "tencent", "num_nodes": 3, "gpus_per_node": 2},
        "policy": "fault-aware",
        "faults": {"events": [
            {"kind": "nic-degrade", "at": 15, "duration": 40, "scale": 0.5},
            {"kind": "node-crash", "at": 25, "duration": 30, "repeat": 3, "period": 45},
            {"kind": "gray-net", "at": 10, "duration": 60, "loss_rate": 0.1, "jitter": 0.5},
        ]},
        "brain": {"name": "health-migrate", "interval": 20},
        "queue_limit": 6,
    }
)

job_bodies = st.fixed_dictionaries(
    {
        "iterations": st.integers(10, 80),
        "arrival_seconds": st.floats(0.0, 120.0, allow_nan=False),
        "priority": st.integers(0, 2),
        "max_nodes": st.integers(1, 3),
        "gpus_per_node": st.sampled_from([None, 1]),
    }
)


class ServeMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.live = ServeEngine(CONFIG)  # never restored
        self.phoenix = ServeEngine(CONFIG)  # restored from snapshots
        self.ops: list[dict] = []
        self.accepted: list[str] = []
        self.clocks = [0.0, 0.0]

    def feed(self, op: dict) -> dict:
        ack = self.live.apply_op(op)
        assert self.phoenix.apply_op(op) == ack
        return ack

    def next_op(self, **fields) -> dict:
        op = {"id": len(self.ops) + 1, **fields}
        self.ops.append(op)
        return op

    @rule(body=job_bodies)
    def submit(self, body):
        name = f"j{len(self.ops)}"
        ack = self.feed(self.next_op(op="submit", job={"name": name, **body}))
        if ack["ok"]:
            self.accepted.append(name)
        else:  # the only admissible rejection is backpressure
            assert "queue full" in ack["error"]

    @rule(delta=st.floats(0.5, 60.0, allow_nan=False))
    def tick(self, delta):
        until = round(self.live.now + delta, 3)
        ack = self.feed(self.next_op(op="tick", until=until))
        assert ack["ok"] and ack["now"] == until

    @precondition(lambda self: self.ops)
    @rule(data=st.data())
    def resend_duplicate(self, data):
        op = data.draw(st.sampled_from(self.ops))
        before = self.live.state_digest()
        link = self.live.witness
        assert self.feed(op) == {"ok": True, "id": op["id"], "duplicate": True}
        assert self.live.state_digest() == before
        assert self.live.witness == link  # nothing applied, chain not advanced

    @rule()
    def snapshot_and_restore(self):
        blob = pickle.dumps(self.phoenix.snapshot_state())
        self.phoenix = ServeEngine.from_snapshot_state(CONFIG, pickle.loads(blob))

    @rule()
    def forget_derived_state(self):
        # The core's memoisation (prices, refused admissions, cluster
        # counters) gone mid-stream, as after a restore, minus the restore.
        drop_caches(self.phoenix.core)

    @invariant()
    def engines_agree_and_hold_invariants(self):
        assert self.live.state_digest() == self.phoenix.state_digest()
        assert self.live.witness == self.phoenix.witness
        for index, engine in enumerate((self.live, self.phoenix)):
            self.clocks[index] = check_invariants(engine.core, self.clocks[index])

    def teardown(self):
        ack = self.feed(self.next_op(op="drain"))
        assert ack["ok"] and ack["drained"]
        self.engines_agree_and_hold_invariants()
        assert sorted(r.spec.name for r in self.live.done) == sorted(self.accepted)
        assert self.live.payload() == self.phoenix.payload()
        replayed = ServeEngine(CONFIG)
        links = set()
        for op in self.ops:
            replayed.apply_op(op)
            links.add(replayed.witness)
        # live == snapshot-plus-tail (phoenix) == replayed from genesis.
        assert replayed.witness == self.live.witness
        assert replayed.state_digest() == self.live.state_digest()
        assert len(links) == len(self.ops)  # every applied op moved the chain


ServeMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=25, deadline=None
)
TestServeMachine = ServeMachine.TestCase
