"""Node-health ledger: suspicion decay, quarantine, probe-back.

The ledger is pure arithmetic over FaultLog-style observations — no
RNG, no wall clock — so its timeline depends only on the fault plan.
That property is what lets every placement policy compared against one
storm see the identical quarantine/probe schedule.
"""

import pytest

from repro.faults.health import KIND_WEIGHTS, NodeHealthLedger
from repro.faults.plan import FaultsConfig


def _ledger(threshold=2.0, half_life=300.0, cooldown=180.0):
    return NodeHealthLedger(
        FaultsConfig(
            quarantine_threshold=threshold,
            health_half_life=half_life,
            probe_cooldown=cooldown,
        )
    )


class TestSuspicion:
    def test_unknown_node_is_clean(self):
        assert _ledger().suspicion(3, now=100.0) == 0.0

    def test_observation_adds_kind_weight(self):
        ledger = _ledger()
        ledger.observe(0, 10.0, "node-crash")
        assert ledger.suspicion(0, 10.0) == pytest.approx(
            KIND_WEIGHTS["node-crash"]
        )
        ledger.observe(1, 10.0, "nic-degrade")
        assert ledger.suspicion(1, 10.0) == pytest.approx(
            KIND_WEIGHTS["nic-degrade"]
        )

    def test_unknown_kind_uses_default_weight(self):
        ledger = _ledger()
        ledger.observe(0, 0.0, "made-up-fault")
        assert 0 < ledger.suspicion(0, 0.0) < KIND_WEIGHTS["node-crash"]

    def test_score_halves_every_half_life(self):
        ledger = _ledger(half_life=100.0)
        ledger.observe(0, 0.0, "node-crash")
        assert ledger.suspicion(0, 100.0) == pytest.approx(0.5)
        assert ledger.suspicion(0, 200.0) == pytest.approx(0.25)

    def test_crashes_weigh_more_than_nic_flaps(self):
        assert KIND_WEIGHTS["node-crash"] > KIND_WEIGHTS["nic-degrade"]
        assert KIND_WEIGHTS["gray-net"] > KIND_WEIGHTS["nic-degrade"]


class TestQuarantine:
    def test_single_event_below_threshold_no_quarantine(self):
        ledger = _ledger(threshold=1.5)
        assert ledger.observe(0, 10.0, "node-crash") is False
        assert not ledger.is_quarantined(0)

    def test_repeat_offender_quarantined(self):
        ledger = _ledger(threshold=1.5, half_life=300.0)
        assert ledger.observe(0, 10.0, "node-crash") is False
        assert ledger.observe(0, 40.0, "node-crash") is True
        assert ledger.is_quarantined(0)
        assert ledger.quarantined_nodes() == [0]

    def test_observe_while_quarantined_does_not_requarantine(self):
        ledger = _ledger(threshold=1.5)
        ledger.observe(0, 0.0, "node-crash")
        assert ledger.observe(0, 10.0, "node-crash") is True
        assert ledger.observe(0, 20.0, "node-crash") is False  # already in
        assert ledger.is_quarantined(0)

    def test_decay_can_prevent_quarantine(self):
        ledger = _ledger(threshold=1.5, half_life=50.0)
        ledger.observe(0, 0.0, "node-crash")
        # Ten half-lives later the first strike is forgotten.
        assert ledger.observe(0, 500.0, "node-crash") is False


class TestProbe:
    def test_probe_due_after_cooldown(self):
        ledger = _ledger(threshold=1.5, cooldown=200.0)
        ledger.observe(0, 0.0, "node-crash")
        ledger.observe(0, 10.0, "node-crash")
        assert ledger.due_probes(now=100.0) == []
        assert ledger.next_boundary(now=100.0) == pytest.approx(210.0)
        assert ledger.due_probes(now=210.0) == [0]

    def test_probe_unquarantines_and_halves_score(self):
        ledger = _ledger(threshold=1.5, half_life=1e9, cooldown=100.0)
        ledger.observe(0, 0.0, "node-crash")
        ledger.observe(0, 0.0, "node-crash")
        assert ledger.is_quarantined(0)
        score = ledger.probe(0, 100.0)
        assert not ledger.is_quarantined(0)
        assert score == pytest.approx(1.0)  # 2.0 decayed (negligibly), halved
        assert ledger.suspicion(0, 100.0) == pytest.approx(1.0)

    def test_probed_node_can_requarantine(self):
        ledger = _ledger(threshold=1.5, half_life=1e9, cooldown=100.0)
        ledger.observe(0, 0.0, "node-crash")
        ledger.observe(0, 0.0, "node-crash")
        ledger.probe(0, 100.0)
        assert ledger.observe(0, 110.0, "node-crash") is True

    def test_next_boundary_none_without_pending_probes(self):
        ledger = _ledger()
        assert ledger.next_boundary(0.0) is None
        ledger.observe(0, 0.0, "node-crash")  # below threshold
        assert ledger.next_boundary(0.0) is None


class TestSummaryAndValidation:
    def test_summary_counts_lifecycle(self):
        ledger = _ledger(threshold=1.5, cooldown=50.0)
        ledger.observe(0, 0.0, "node-crash")
        ledger.observe(0, 10.0, "node-crash")
        for node in ledger.due_probes(70.0):
            ledger.probe(node, 70.0)
        ledger.observe(1, 80.0, "straggler")
        summary = ledger.summary()
        assert summary["quarantines"] == 1
        assert summary["probes"] == 1
        assert summary["quarantined_end"] == []
        assert 0 in summary["suspects"] and 1 in summary["suspects"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"quarantine_threshold": 0.0},
            {"quarantine_threshold": -1.0},
            {"health_half_life": 0.0},
            {"probe_cooldown": -1.0},
        ],
    )
    def test_bad_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NodeHealthLedger(FaultsConfig(**kwargs))

    def test_timeline_is_deterministic(self):
        # Same observations, same answers — no RNG, no wall clock.
        def play():
            ledger = _ledger(threshold=1.5)
            out = []
            for t, kind in ((5.0, "node-crash"), (20.0, "gray-net"),
                            (60.0, "node-crash")):
                out.append(ledger.observe(0, t, kind))
            out.append(round(ledger.suspicion(0, 90.0), 12))
            out.append(ledger.next_boundary(90.0))
            return out

        assert play() == play()


class TestThresholdBoundary:
    """The exact-threshold and mid-window edges the brain reads through."""

    def test_score_exactly_at_threshold_quarantines(self):
        # Two same-instant crashes on a 2.0 threshold: score == threshold
        # exactly.  The non-quarantine path is score < threshold, so the
        # boundary itself quarantines.
        ledger = _ledger(threshold=2.0 * KIND_WEIGHTS["node-crash"])
        assert ledger.observe(0, 10.0, "node-crash") is False
        assert ledger.observe(0, 10.0, "node-crash") is True
        assert ledger.is_quarantined(0)

    def test_score_epsilon_below_threshold_does_not(self):
        ledger = _ledger(threshold=2.0 * KIND_WEIGHTS["node-crash"] + 1e-9)
        ledger.observe(0, 10.0, "node-crash")
        assert ledger.observe(0, 10.0, "node-crash") is False
        assert not ledger.is_quarantined(0)

    def test_no_probe_due_during_active_window(self):
        ledger = _ledger(threshold=1.0, cooldown=100.0)
        ledger.observe(0, 0.0, "node-crash")
        assert ledger.is_quarantined(0)
        assert ledger.due_probes(99.9) == []
        assert ledger.due_probes(100.0) == [0]

    def test_observation_during_window_keeps_probe_schedule(self):
        # A fault landing mid-quarantine raises suspicion but must not
        # push the probe out (or re-count a quarantine).
        ledger = _ledger(threshold=1.0, cooldown=100.0)
        ledger.observe(0, 0.0, "node-crash")
        boundary = ledger.next_boundary(1.0)
        assert ledger.observe(0, 50.0, "gray-net") is False
        assert ledger.next_boundary(51.0) == boundary
        assert ledger.quarantines == 1

    def test_probe_at_exact_due_time_halves_and_releases(self):
        ledger = _ledger(threshold=1.0, half_life=1e9, cooldown=100.0)
        ledger.observe(0, 0.0, "node-crash")
        score = ledger.probe(0, 100.0)
        assert not ledger.is_quarantined(0)
        assert score == pytest.approx(KIND_WEIGHTS["node-crash"] / 2.0)


class TestConfigLoadBoundary:
    """Health knobs are rejected at config load, before any simulation."""

    def test_zero_half_life_rejected_by_plan(self):
        from repro.faults.plan import FaultPlan
        from repro.faults.registry import FaultError

        with pytest.raises(FaultError, match="health_half_life must be > 0"):
            FaultPlan.from_config(
                {"events": [{"kind": "node-crash", "at": 10}],
                 "health_half_life": 0},
                seed=7,
                target="sched",
            )

    def test_zero_half_life_rejected_by_sched_config(self):
        # Surfaces as FaultError (a ValueError the CLI maps to one
        # ``error:`` line + exit 2), raised while the section validates.
        from repro.api.config import SchedConfig

        data = {
            "name": "hl",
            "cluster": {"num_nodes": 2},
            "jobs": [{"name": "a", "iterations": 10}],
            "faults": {
                "events": [{"kind": "node-crash", "at": 10}],
                "health_half_life": 0.0,
            },
        }
        with pytest.raises(ValueError, match="health_half_life must be > 0"):
            SchedConfig.from_dict(data)
