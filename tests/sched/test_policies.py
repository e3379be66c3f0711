"""Placement policies: cluster state, registry round-trip, orderings."""

import pytest

from repro.sched.job import JobSpec
from repro.sched.policies import POLICIES, ClusterState, build_policy, register_policy


@pytest.fixture
def state():
    return ClusterState(num_nodes=4, gpus_per_node=8)


class TestClusterState:
    def test_place_and_release(self, state):
        state.place("a", [0, 1], 4)
        assert state.free_gpus(0) == 4
        assert state.tenants(0) == 1
        assert state.jobs_on(1) == ("a",)
        assert state.gpus_of("a", 0) == 4
        state.release("a", [0])
        assert state.free_gpus(0) == 8
        state.release("a")  # remaining nodes
        assert state.busy_nodes() == 0

    def test_overcommit_rejected(self, state):
        state.place("a", [0], 6)
        with pytest.raises(ValueError, match="free GPUs"):
            state.place("b", [0], 4)
        with pytest.raises(ValueError, match="already occupies"):
            state.place("a", [0], 1)

    def test_feasible_and_contention(self, state):
        state.place("a", [0, 1], 4)
        state.place("b", [0], 4)
        assert state.feasible_nodes(8) == [2, 3]
        assert state.feasible_nodes(4) == [1, 2, 3]
        assert state.feasible_nodes(4, exclude=[1]) == [2, 3]
        assert state.contention_for([0, 1]) == 2
        assert state.contention_for([1]) == 1
        assert state.contention_for([]) == 1

    def test_comm_load(self, state):
        state.place("a", [0], 4)
        state.place("b", [0], 4)
        state.set_comm_intensity("a", 0.6)
        state.set_comm_intensity("b", 0.1)
        assert state.comm_load(0) == pytest.approx(0.7)
        assert state.comm_load(1) == 0.0


class TestRegistryRoundTrip:
    def test_builtins_registered(self):
        names = POLICIES.available()
        assert {"bin-pack", "spread", "network-aware"} <= set(names)
        assert POLICIES.canonical("binpack") == "bin-pack"
        assert POLICIES.canonical("netaware") == "network-aware"

    def test_register_and_use_custom_policy(self, state):
        name = "test-reverse-policy"
        if name in POLICIES:
            pytest.skip("leftover registration")

        @register_policy(name, aliases=(name + "-alias",))
        def _reverse(job, candidates, st):
            return sorted(candidates, reverse=True)

        try:
            assert POLICIES.canonical(name + "-alias") == name
            policy = build_policy(name)
            job = JobSpec(name="j", gpus_per_node=4)
            assert policy(job, [0, 1, 2], state) == [2, 1, 0]
            # And it drives a real scheduler run end-to-end.
            from repro.sched import MultiTenantScheduler

            scheduler = MultiTenantScheduler(
                num_nodes=3, gpus_per_node=8, policy=name + "-alias"
            )
            report = scheduler.run(
                [JobSpec(name="j", iterations=5, max_nodes=2, gpus_per_node=4)]
            )
            assert report.policy == name
            # Reverse ordering placed the job on the highest node ids.
            assert report.traces["j"][0] == (0, 2)
        finally:
            POLICIES._entries.pop(name, None)
            POLICIES._aliases.pop(name + "-alias", None)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(KeyError, match="already registered"):
            register_policy("bin-pack")(lambda *a: [])

    def test_unknown_policy_lists_available(self):
        with pytest.raises(KeyError, match="bin-pack"):
            build_policy("warpdrive")


class TestBuiltinOrderings:
    def test_bin_pack_prefers_busy_nodes(self, state):
        state.place("a", [1], 4)
        job = JobSpec(name="j", gpus_per_node=2)
        ordered = build_policy("bin-pack")(job, [0, 1, 2, 3], state)
        assert ordered[0] == 1  # least free GPUs first

    def test_spread_prefers_empty_nodes(self, state):
        state.place("a", [1], 4)
        job = JobSpec(name="j", gpus_per_node=2)
        ordered = build_policy("spread")(job, [0, 1, 2, 3], state)
        assert ordered[-1] == 1  # busiest last

    def test_network_aware_avoids_chatty_neighbours(self, state):
        # Two half-occupied nodes; the resident on node 1 is comm-heavy,
        # the one on node 2 compute-bound.  Spread ties on free GPUs and
        # falls back to node id; network-aware picks the quiet node 2.
        state.place("chatty", [1], 4)
        state.place("quiet", [2], 4)
        state.set_comm_intensity("chatty", 0.7)
        state.set_comm_intensity("quiet", 0.05)
        job = JobSpec(name="j", gpus_per_node=4)
        aware = build_policy("network-aware")(job, [1, 2], state)
        assert aware == [2, 1]
        spread = build_policy("spread")(job, [1, 2], state)
        assert spread == [1, 2]


class TestFaultAwareOrdering:
    """The ledger-reading policy: quarantine, suspicion tiers, AZ blocks."""

    @staticmethod
    def _ledger(threshold=2.0):
        from repro.faults.health import NodeHealthLedger
        from repro.faults.plan import FaultsConfig

        return NodeHealthLedger(FaultsConfig(quarantine_threshold=threshold))

    def test_degenerates_to_spread_without_ledger(self, state):
        assert state.health is None
        state.place("a", [1], 4)
        job = JobSpec(name="j", gpus_per_node=2)
        fault_aware = build_policy("fault-aware")(job, [0, 1, 2, 3], state)
        spread = build_policy("spread")(job, [0, 1, 2, 3], state)
        assert fault_aware == spread

    def test_returns_permutation_of_candidates(self, state):
        ledger = self._ledger()
        ledger.observe(2, 0.0, "node-crash")
        ledger.observe(2, 1.0, "node-crash")  # quarantines node 2
        ledger.observe(0, 5.0, "nic-degrade")
        state.health, state.now = ledger, 10.0
        job = JobSpec(name="j", gpus_per_node=2)
        ordered = build_policy("fault-aware")(job, [3, 1, 0, 2], state)
        assert sorted(ordered) == [0, 1, 2, 3]

    def test_quarantined_node_sorts_last(self, state):
        ledger = self._ledger(threshold=1.5)
        ledger.observe(0, 0.0, "node-crash")
        ledger.observe(0, 5.0, "node-crash")
        assert ledger.is_quarantined(0)
        state.health, state.now = ledger, 10.0
        job = JobSpec(name="j", gpus_per_node=2)
        ordered = build_policy("fault-aware")(job, [0, 1, 2, 3], state)
        assert ordered[-1] == 0
        # Still a candidate: a saturated cluster may fall back to it.
        assert set(ordered) == {0, 1, 2, 3}

    def test_critical_job_avoids_mild_suspicion_best_effort_ignores(self, state):
        # Node 0 is mildly suspect (score < threshold / 2).  A deadline
        # job sorts by exact suspicion and dodges it; a best-effort job
        # buckets it with the clean nodes and keeps the id tie-break.
        ledger = self._ledger(threshold=2.0)
        ledger.observe(0, 0.0, "nic-degrade")  # 0.4 < 1.0
        state.health, state.now = ledger, 0.0
        policy = build_policy("fault-aware")
        critical = JobSpec(name="c", gpus_per_node=2, deadline_seconds=100.0)
        assert policy(critical, [0, 1, 2, 3], state)[-1] == 0
        best_effort = JobSpec(name="b", gpus_per_node=2)
        assert policy(best_effort, [0, 1, 2, 3], state)[0] == 0

    def test_best_effort_dodges_heavy_suspicion(self, state):
        # Above threshold / 2 even best-effort jobs steer away.
        ledger = self._ledger(threshold=2.0)
        ledger.observe(0, 0.0, "node-crash")  # 1.0 >= 1.0
        state.health, state.now = ledger, 0.0
        job = JobSpec(name="b", gpus_per_node=2)
        ordered = build_policy("fault-aware")(job, [0, 1, 2, 3], state)
        assert ordered[-1] == 0

    def test_interleaves_across_az_blocks(self):
        # Eight nodes -> four two-node AZ blocks.  On a clean ledger the
        # first round takes each block's head: one reclaim can't erase a
        # whole multi-node allocation.
        from repro.sched.policies import ClusterState

        state = ClusterState(num_nodes=8, gpus_per_node=8)
        state.health, state.now = self._ledger(), 0.0
        job = JobSpec(name="j", gpus_per_node=2)
        ordered = build_policy("fault-aware")(job, list(range(8)), state)
        assert ordered == [0, 2, 4, 6, 1, 3, 5, 7]

    def test_alias_health_aware_resolves(self):
        assert POLICIES.canonical("health-aware") == "fault-aware"
