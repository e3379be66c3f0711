"""Churn schedules: Poisson statistics, traces, and the warning model."""

import pytest

from repro.elastic.events import (
    JOIN,
    REVOKE,
    SPOT_PROFILES,
    ChurnEvent,
    SpotProfile,
    PoissonChurn,
    TraceSchedule,
)
from repro.utils.seeding import new_rng


class TestChurnEvent:
    def test_kind_validated(self):
        with pytest.raises(ValueError, match="kind"):
            ChurnEvent(0, "explode")

    def test_negative_iteration_rejected(self):
        with pytest.raises(ValueError, match="iteration"):
            ChurnEvent(-1, REVOKE)


class TestTraceSchedule:
    def test_sorted_and_clipped_to_horizon(self):
        trace = TraceSchedule(
            [ChurnEvent(30, JOIN), ChurnEvent(5, REVOKE), ChurnEvent(90, REVOKE)]
        )
        events = trace.generate(50, 4)
        assert [e.iteration for e in events] == [5, 30]


class TestPoissonChurn:
    def test_zero_rate_is_silent(self):
        assert PoissonChurn(0.0).generate(500, 4, new_rng(0)) == []

    def test_rate_sets_expected_count(self):
        # With fast backfill the population stays near 4 nodes, so 2000
        # iterations at 0.005/node-iter expect ~40 revocations.
        schedule = PoissonChurn(0.005, rejoin_delay=5, min_nodes=1)
        events = schedule.generate(2000, 4, new_rng(3))
        revokes = [e for e in events if e.kind == REVOKE]
        assert 15 <= len(revokes) <= 80

    def test_min_nodes_respected(self):
        schedule = PoissonChurn(0.5, rejoin_delay=0, min_nodes=2)
        events = schedule.generate(1000, 4, new_rng(1))
        revokes = sum(1 for e in events if e.kind == REVOKE)
        joins = sum(1 for e in events if e.kind == JOIN)
        # Can never revoke more than (4 - min_nodes) + joins nodes.
        assert revokes <= 2 + joins

    def test_rejoins_follow_revocations(self):
        schedule = PoissonChurn(0.05, rejoin_delay=10, min_nodes=1)
        events = schedule.generate(400, 4, new_rng(7))
        revokes = [e for e in events if e.kind == REVOKE]
        joins = [e for e in events if e.kind == JOIN]
        assert revokes and joins
        assert len(joins) <= len(revokes)
        # Every join postdates some revocation.
        assert min(j.iteration for j in joins) > min(r.iteration for r in revokes)

    def test_warned_fraction_extremes(self):
        rng = new_rng(5)
        all_warned = PoissonChurn(0.05, warned_fraction=1.0).generate(400, 4, rng)
        assert all(e.warned for e in all_warned if e.kind == REVOKE)
        rng = new_rng(5)
        none_warned = PoissonChurn(0.05, warned_fraction=0.0).generate(400, 4, rng)
        assert not any(e.warned for e in none_warned if e.kind == REVOKE)

    def test_deterministic_in_rng(self):
        a = PoissonChurn(0.02, rejoin_delay=5).generate(300, 4, new_rng(9))
        b = PoissonChurn(0.02, rejoin_delay=5).generate(300, 4, new_rng(9))
        assert a == b


class TestSpotProfiles:
    def test_every_cloud_preset_has_a_profile(self):
        from repro.cluster.cloud_presets import CLOUD_INSTANCES

        assert set(SPOT_PROFILES) == set(CLOUD_INSTANCES)
        for key, profile in SPOT_PROFILES.items():
            assert profile.cloud == key
            assert 0 < profile.spot_discount < 1  # spot undercuts on-demand
            assert profile.warning_seconds > 0

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("revoke_rate", -0.001, "revoke_rate"),
            ("warned_fraction", 1.2, "warned_fraction"),
            ("spot_discount", 0.0, "spot_discount"),
            ("spot_discount", 1.5, "spot_discount"),
        ],
        ids=["negative-rate", "warned-over-one", "free-spot", "spot-above-on-demand"],
    )
    def test_out_of_range_fields_are_rejected(self, field, value, message):
        fields = {**SPOT_PROFILES["aws"].__dict__, field: value}
        with pytest.raises(ValueError, match=message):
            SpotProfile(**fields)
