"""Decision logic of the built-in brains, against hand-built snapshots.

A stub pricing oracle with a fixed scaling curve makes every decision
boundary explicit: the throughput brain's grow/shrink rules, the
rollback-risk pricing on scale-ups, and the health brain's
migrate-else-shrink repair (most-critical job first, cleanest target
first, one promise per target per tick).
"""

import pytest

from repro.api.config import BrainConfig, FaultsConfig
from repro.brain.builtins import HealthMigrateBrain, StaticBrain, ThroughputBrain
from repro.brain.signals import BrainObservation, JobSignal, NodeSignal


class _StubSpotProfile:
    spot_discount = 0.3


class _StubScheduler:
    """Pricing oracle: per-size iteration seconds from an explicit curve."""

    spot_profile = _StubSpotProfile()

    def __init__(self, curves):
        #: job name -> {node_count: iteration_seconds}
        self.curves = curves

    def iteration_seconds(self, spec, *, nodes, contention=1.0, **_):
        return self.curves[spec][nodes]

    def hourly_rate(self, spec, nodes):
        return 2.0 * nodes

    def job_gpus(self, spec):
        return 2


def _node(node, *, suspicion=0.0, up=True, free=2, tenants=0, quarantined=False):
    return NodeSignal(
        node=node,
        up=up,
        free_gpus=free,
        tenants=tenants,
        suspicion=suspicion,
        quarantined=quarantined,
    )


def _job(name, nodes, *, min_nodes=1, max_nodes=3, priority=0, deadline=None):
    return JobSignal(
        name=name,
        nodes=tuple(nodes),
        min_nodes=min_nodes,
        max_nodes=max_nodes,
        priority=priority,
        deadline_seconds=deadline,
    )


def _observation(nodes, jobs, curves, *, threshold=2.0):
    return BrainObservation(
        now=120.0,
        nodes=nodes,
        jobs=jobs,
        faults=(
            None
            if threshold == float("inf")
            else FaultsConfig(quarantine_threshold=threshold)
        ),
        spot_discount=0.3,
        queued=0,
        scheduler=_StubScheduler(curves),
        specs={job.name: job.name for job in jobs},
    )


#: Perfect scaling 1 -> 2 (0.5 s/it per extra node), useless third node.
GOOD_THEN_FLAT = {1: 1.0, 2: 0.5, 3: 0.499}
#: Already no better than one node at two.
FLAT = {1: 1.0, 2: 0.999, 3: 0.998}


class TestStaticBrain:
    def test_never_decides(self):
        obs = _observation([_node(0)], [_job("a", [0])], {"a": GOOD_THEN_FLAT})
        assert StaticBrain(BrainConfig(name="static")).decide(obs) == []


class TestThroughputBrain:
    def test_grows_on_efficient_margin(self):
        obs = _observation(
            [_node(0), _node(1)], [_job("a", [0])], {"a": GOOD_THEN_FLAT}
        )
        actions = ThroughputBrain(BrainConfig(name="throughput")).decide(obs)
        assert [a.kind for a in actions] == ["grow"]
        assert actions[0].job == "a" and actions[0].dst == 1

    def test_rollback_risk_prices_out_a_gray_target(self):
        # Same perfect margin, but the only free node is nearly quarantined
        # (suspicion 0.9 of threshold 2.0 stays under the 0.5 gray cutoff
        # yet prices 0.45 of risk off the margin): 1.0 - 0.45 < 0.7.
        obs = _observation(
            [_node(0), _node(1, suspicion=0.9)],
            [_job("a", [0])],
            {"a": GOOD_THEN_FLAT},
        )
        brain = ThroughputBrain(BrainConfig(name="throughput"))
        assert brain.decide(obs) == []
        # With risk pricing disabled the same snapshot grows.
        fearless = ThroughputBrain(BrainConfig(name="throughput", rollback_weight=0.0))
        assert [a.kind for a in fearless.decide(obs)] == ["grow"]

    def test_sheds_a_useless_last_node(self):
        obs = _observation(
            [_node(0), _node(1, suspicion=0.2)],
            [_job("a", [0, 1], max_nodes=2)],
            {"a": FLAT},
        )
        actions = ThroughputBrain(BrainConfig(name="throughput")).decide(obs)
        assert [a.kind for a in actions] == ["shrink"]
        # The most-suspect allocation node is the one shed.
        assert actions[0].src == 1

    def test_respects_gang_floor(self):
        obs = _observation(
            [_node(0), _node(1)],
            [_job("a", [0, 1], min_nodes=2, max_nodes=2)],
            {"a": FLAT},
        )
        assert ThroughputBrain(BrainConfig(name="throughput")).decide(obs) == []


class TestHealthMigrateBrain:
    def test_migrates_off_gray_node_to_cleanest(self):
        # Node 1 is over the 0.5 * 2.0 = 1.0 gray cutoff; nodes 2 and 3
        # are free, node 3 cleaner.
        obs = _observation(
            [
                _node(0),
                _node(1, suspicion=1.4),
                _node(2, suspicion=0.3),
                _node(3),
            ],
            [_job("a", [0, 1], max_nodes=2)],
            {"a": GOOD_THEN_FLAT},
        )
        actions = HealthMigrateBrain(BrainConfig(name="health-migrate")).decide(obs)
        assert [a.kind for a in actions] == ["migrate"]
        assert actions[0].src == 1 and actions[0].dst == 3

    def test_shrinks_when_no_clean_replacement(self):
        obs = _observation(
            [_node(0), _node(1, suspicion=1.4)],
            [_job("a", [0, 1], max_nodes=2)],
            {"a": GOOD_THEN_FLAT},
        )
        actions = HealthMigrateBrain(BrainConfig(name="health-migrate")).decide(obs)
        assert [a.kind for a in actions] == ["shrink"]
        assert actions[0].src == 1

    def test_gang_floor_blocks_preemptive_shrink(self):
        obs = _observation(
            [_node(0), _node(1, suspicion=1.4)],
            [_job("a", [0, 1], min_nodes=2, max_nodes=2)],
            {"a": GOOD_THEN_FLAT},
        )
        assert HealthMigrateBrain(BrainConfig(name="health-migrate")).decide(obs) == []

    def test_one_promise_per_target_per_tick(self):
        # Two jobs both want off their gray node; only one free clean
        # node exists, so the second repair degrades to a shrink.
        obs = _observation(
            [
                _node(0, free=0, tenants=1),
                _node(1, suspicion=1.4, free=0, tenants=1),
                _node(2, free=0, tenants=1),
                _node(3, suspicion=1.4, free=0, tenants=1),
                _node(4),
            ],
            [
                _job("a", [0, 1], priority=1, max_nodes=2),
                _job("b", [2, 3], max_nodes=2),
            ],
            {"a": GOOD_THEN_FLAT, "b": GOOD_THEN_FLAT},
        )
        actions = HealthMigrateBrain(BrainConfig(name="health-migrate")).decide(obs)
        by_job = {a.job: a for a in actions}
        # Higher-priority job repairs first and takes the clean node.
        assert by_job["a"].kind == "migrate" and by_job["a"].dst == 4
        assert by_job["b"].kind == "shrink" and by_job["b"].src == 3

    def test_rescale_pass_covers_unrepaired_jobs(self):
        # No gray nodes at all: the brain still sheds job a's useless
        # second node via the throughput rules.
        obs = _observation(
            [_node(0), _node(1)],
            [_job("a", [0, 1], max_nodes=2)],
            {"a": FLAT},
        )
        actions = HealthMigrateBrain(BrainConfig(name="health-migrate")).decide(obs)
        assert [a.kind for a in actions] == ["shrink"]

    def test_without_ledger_nothing_is_gray(self):
        # quarantine_threshold == inf (no fault plan): cutoff is inf, so
        # even a "suspect" node only sees the rescale pass.
        obs = _observation(
            [_node(0), _node(1, suspicion=5.0)],
            [_job("a", [0, 1], max_nodes=2)],
            {"a": GOOD_THEN_FLAT},
            threshold=float("inf"),
        )
        actions = HealthMigrateBrain(BrainConfig(name="health-migrate")).decide(obs)
        assert all(a.kind != "migrate" for a in actions)


class TestObservationOracle:
    def test_throughput_is_clean_curve(self):
        obs = _observation([_node(0)], [_job("a", [0])], {"a": GOOD_THEN_FLAT})
        assert obs.throughput("a", 1) == pytest.approx(1.0)
        assert obs.throughput("a", 2) == pytest.approx(2.0)
        assert obs.throughput("a", 0) == 0.0

    def test_suspicion_fraction(self):
        obs = _observation(
            [_node(0, suspicion=1.0)], [_job("a", [0])], {"a": GOOD_THEN_FLAT}
        )
        assert obs.suspicion_fraction(0) == pytest.approx(0.5)

    def test_gray_includes_down_and_quarantined(self):
        obs = _observation(
            [
                _node(0, up=False),
                _node(1, quarantined=True),
                _node(2, suspicion=1.2),
                _node(3),
            ],
            [_job("a", [0])],
            {"a": GOOD_THEN_FLAT},
        )
        assert obs.gray_nodes(cutoff=1.0) == [0, 1, 2]

    def test_clean_candidates_exclude_allocation_and_full_nodes(self):
        obs = _observation(
            [
                _node(0),
                _node(1, free=1),  # too full for a 2-GPU slice
                _node(2, suspicion=0.3),
                _node(3, tenants=1),
            ],
            [_job("a", [0])],
            {"a": GOOD_THEN_FLAT},
        )
        job = obs.job("a")
        # Node 0 is the job's own; node 1 lacks GPUs; 3 beats 2 (cleaner
        # wins over emptier: suspicion sorts before tenants).
        assert obs.clean_candidates(job, 2, cutoff=1.0) == [3, 2]
