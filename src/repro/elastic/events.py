"""Preemption / arrival event model for elastic cloud training.

Public-cloud training fleets are not static: spot ("preemptible")
instances are revoked when the provider reclaims capacity, and elastic
schedulers backfill replacement nodes when the market allows.  Two
empirical properties shape the model here:

* **Memoryless revocations** — spot interruptions are well modelled as a
  Poisson process per node ("Speeding up Deep Learning with Transient
  Servers", Li et al. 2019); :class:`PoissonChurn` draws per-iteration
  revocations at a configurable rate and schedules replacement arrivals
  after a rejoin delay.
* **The two-minute warning** — AWS (and, with different windows, other
  clouds) notify a spot instance ~120 s before reclaiming it.  A warned
  revocation gives the job time to checkpoint, so no work is lost; a
  surprise revocation forces a rollback to the last periodic
  checkpoint.

:class:`TraceSchedule` replays an explicit event list instead, for
reproducing a recorded revocation trace.  Both schedules produce plain
:class:`ChurnEvent` lists consumed by
:class:`repro.elastic.elastic_trainer.ElasticTrainer`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.utils.seeding import RandomState, new_rng

#: Event kinds.
REVOKE = "revoke"
JOIN = "join"


@dataclass(frozen=True)
class ChurnEvent:
    """One membership change, effective at a wall-clock iteration.

    Attributes
    ----------
    iteration:
        Wall iteration index at which the change takes effect (wall
        iterations count attempted steps, including replayed ones).
    kind:
        ``"revoke"`` or ``"join"``.
    node:
        Original node id to revoke; ``None`` lets the membership view
        pick a victim deterministically.  Ignored for joins.
    warned:
        True when the provider announced the revocation ahead of time
        (the two-minute warning), allowing a proactive checkpoint.
    """

    iteration: int
    kind: str
    node: int | None = None
    warned: bool = False

    def __post_init__(self) -> None:
        if self.iteration < 0:
            raise ValueError(f"iteration must be >= 0, got {self.iteration}")
        if self.kind not in (REVOKE, JOIN):
            raise ValueError(f"kind must be {REVOKE!r} or {JOIN!r}, got {self.kind!r}")


@dataclass(frozen=True)
class SpotProfile:
    """Spot-market parameters of one cloud preset.

    ``revoke_rate`` is the per-node, per-iteration Poisson revocation
    rate at the default iteration length; ``warned_fraction`` is the
    share of revocations that deliver the advance warning (in practice
    the notice exists but polling can miss it); prices are ballpark
    USD per node-hour for the Table 1 8xV100 instances.
    """

    cloud: str
    revoke_rate: float
    warning_seconds: float
    warned_fraction: float
    on_demand_hourly: float
    spot_discount: float  # spot price as a fraction of on-demand

    def __post_init__(self) -> None:
        if self.revoke_rate < 0:
            raise ValueError(f"revoke_rate must be >= 0, got {self.revoke_rate}")
        if not 0 <= self.warned_fraction <= 1:
            raise ValueError("warned_fraction must be in [0, 1]")
        if not 0 < self.spot_discount <= 1:
            raise ValueError("spot_discount must be in (0, 1]")


#: Per-cloud spot profiles for the Table 1 instances.  Rates and prices
#: are ballparks: AWS p3.16xlarge on-demand ~$24.5/h with spot ~30% of
#: that; Aliyun and Tencent discount less but also interrupt less often.
SPOT_PROFILES: dict[str, SpotProfile] = {
    "aws": SpotProfile(
        cloud="aws",
        revoke_rate=0.004,
        warning_seconds=120.0,
        warned_fraction=0.9,
        on_demand_hourly=24.48,
        spot_discount=0.31,
    ),
    "aliyun": SpotProfile(
        cloud="aliyun",
        revoke_rate=0.002,
        warning_seconds=300.0,
        warned_fraction=0.8,
        on_demand_hourly=20.00,
        spot_discount=0.35,
    ),
    "tencent": SpotProfile(
        cloud="tencent",
        revoke_rate=0.002,
        warning_seconds=120.0,
        warned_fraction=0.8,
        on_demand_hourly=21.60,
        spot_discount=0.30,
    ),
}


class TraceSchedule:
    """Replay an explicit, pre-recorded churn event list."""

    def __init__(self, events: Sequence[ChurnEvent]) -> None:
        self.events = sorted(events, key=lambda e: e.iteration)

    @classmethod
    def from_deltas(
        cls, waypoints: Sequence[tuple[int, int]], *, warned: bool = True
    ) -> "TraceSchedule":
        """Build a trace from ``(iteration, node_count)`` waypoints.

        The first waypoint fixes the starting size; each later one emits
        the joins/revocations needed to reach its count at its iteration.
        This is how scheduler-driven allocations (``repro.sched`` records
        every grow/shrink as a waypoint) become a replayable churn trace:
        scheduler decisions are announced ahead of time, so revocations
        default to ``warned`` (no lost work — flip for surprise-style
        replay).  Waypoint iterations must be non-decreasing.
        """
        if not waypoints:
            raise ValueError("waypoints must be non-empty")
        events: list[ChurnEvent] = []
        prev_iteration, prev_count = waypoints[0]
        if prev_count < 1:
            raise ValueError(f"node counts must be >= 1, got {prev_count}")
        for iteration, count in waypoints[1:]:
            if iteration < prev_iteration:
                raise ValueError(
                    f"waypoint iterations must be non-decreasing, got "
                    f"{iteration} after {prev_iteration}"
                )
            if count < 1:
                raise ValueError(f"node counts must be >= 1, got {count}")
            kind = JOIN if count > prev_count else REVOKE
            for _ in range(abs(count - prev_count)):
                events.append(
                    ChurnEvent(iteration, kind, warned=warned and kind == REVOKE)
                )
            prev_iteration, prev_count = iteration, count
        return cls(events)

    def generate(
        self, horizon: int, num_nodes: int, rng: RandomState | None = None
    ) -> list[ChurnEvent]:
        """Events within ``[0, horizon)``; the rng is unused (trace is fixed)."""
        if horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon}")
        return [e for e in self.events if e.iteration < horizon]


class PoissonChurn:
    """Memoryless spot revocations with delayed replacement arrivals.

    Parameters
    ----------
    revoke_rate:
        Expected revocations per node per iteration (e.g. ``0.005`` with
        4 nodes averages one revocation every 50 iterations).
    warned_fraction:
        Probability a revocation carries the advance warning.
    rejoin_delay:
        Mean iterations until a replacement node arrives; ``0`` disables
        backfill (the cluster only shrinks).
    min_nodes:
        Revocations that would drop the cluster below this are skipped
        (the schedule respects the job's minimum viable size).
    """

    def __init__(
        self,
        revoke_rate: float,
        *,
        warned_fraction: float = 0.8,
        rejoin_delay: int = 0,
        min_nodes: int = 1,
    ) -> None:
        if revoke_rate < 0:
            raise ValueError(f"revoke_rate must be >= 0, got {revoke_rate}")
        if not 0 <= warned_fraction <= 1:
            raise ValueError("warned_fraction must be in [0, 1]")
        if rejoin_delay < 0:
            raise ValueError(f"rejoin_delay must be >= 0, got {rejoin_delay}")
        if min_nodes < 1:
            raise ValueError(f"min_nodes must be >= 1, got {min_nodes}")
        self.revoke_rate = revoke_rate
        self.warned_fraction = warned_fraction
        self.rejoin_delay = rejoin_delay
        self.min_nodes = min_nodes

    def generate(
        self, horizon: int, num_nodes: int, rng: RandomState | None = None
    ) -> list[ChurnEvent]:
        """Simulate membership over ``horizon`` iterations, emitting events.

        The simulation tracks the live node count so revocations never
        violate ``min_nodes`` and backfill never exceeds the starting
        size (elastic quotas cap at the original allocation).
        """
        if horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon}")
        if num_nodes < self.min_nodes:
            raise ValueError(
                f"num_nodes {num_nodes} below min_nodes {self.min_nodes}"
            )
        rng = rng if rng is not None else new_rng()
        p_revoke = 1.0 - math.exp(-self.revoke_rate)
        live = num_nodes
        pending_joins: dict[int, int] = {}
        events: list[ChurnEvent] = []
        for t in range(horizon):
            arrivals = pending_joins.pop(t, 0)
            for _ in range(arrivals):
                if live < num_nodes:
                    live += 1
                    events.append(ChurnEvent(t, JOIN))
            if self.revoke_rate == 0:
                continue
            hits = int(rng.binomial(live, p_revoke))
            for _ in range(hits):
                if live <= self.min_nodes:
                    break
                live -= 1
                warned = bool(rng.random() < self.warned_fraction)
                events.append(ChurnEvent(t, REVOKE, warned=warned))
                if self.rejoin_delay > 0:
                    delay = 1 + int(rng.poisson(self.rejoin_delay))
                    join_at = t + delay
                    if join_at < horizon:
                        pending_joins[join_at] = pending_joins.get(join_at, 0) + 1
        return events


__all__ = [
    "REVOKE",
    "JOIN",
    "ChurnEvent",
    "SpotProfile",
    "SPOT_PROFILES",
    "TraceSchedule",
    "PoissonChurn",
]
