"""Drives one :class:`~repro.brain.base.Autotuner` through a simulation.

The :class:`BrainDriver` owns the brain's event-loop integration: it
fires a decision tick every ``interval`` virtual seconds, snapshots the
cluster into a :class:`~repro.brain.signals.BrainObservation`, and
applies the brain's :class:`~repro.brain.base.Action`\\ s through the
exact machinery every other scheduler decision uses —
:class:`~repro.sched.policies.ClusterState` transitions, waypoint
marks (so rescales land in the replayable elastic trace), and
:class:`~repro.elastic.membership.MembershipView` epochs.

Every action is validated against live state before it applies: gang
windows (``min_nodes``/``max_nodes``), node capacity and up-status, the
per-job dwell window (a job the brain just moved is frozen for
``min_dwell`` seconds so the autoscaler cannot instantly undo the
decision), and the per-tick ``max_actions`` cap.  Infeasible actions
are *declined* and logged — never partially applied — so a buggy brain
degrades to a noisy log, not a corrupted simulation.

The driver also exports the scheduler-facing guards: nodes the brain
currently considers gray are withheld from autoscale growth until the
next tick (:meth:`avoid_nodes`), and dwell-frozen jobs skip autoscale
entirely (:meth:`grow_frozen`).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.brain.base import ACTION_KINDS, Action, Autotuner
from repro.brain.log import BrainLog
from repro.brain.signals import build_observation

if TYPE_CHECKING:
    from repro.sched.core import SchedRun

_EPS = 1e-12


class BrainDriver:
    """Applies one brain's decisions inside one scheduler run.

    Holds decision state only; the live run (and through it the
    scheduler) arrives per call, so the driver pickles with the run.
    """

    def __init__(self, config, autotuner: Autotuner) -> None:
        self.config = config
        self.autotuner = autotuner
        self.log = BrainLog()
        #: Next decision tick on the virtual clock.
        self._next_tick = float(config.interval)
        #: job name -> virtual time its dwell window ends.
        self._job_hold: dict[str, float] = {}
        #: node -> virtual time until which autoscale must avoid it.
        self._avoid: dict[int, float] = {}
        self.ticks = 0
        self.migrations = 0
        self.grows = 0
        self.shrinks = 0
        self.declined = 0

    # -- scheduler-facing guards ----------------------------------------------
    def next_boundary(self, now: float) -> float | None:
        """The next decision tick, if it is still in the future."""
        return self._next_tick if self._next_tick > now + _EPS else None

    def grow_frozen(self, job: str, now: float) -> bool:
        """Whether the autoscaler must leave this job alone (dwell)."""
        return self._job_hold.get(job, 0.0) > now + _EPS

    def avoid_nodes(self, now: float) -> set[int]:
        """Nodes the brain has flagged gray; autoscale growth skips them."""
        return {node for node, until in self._avoid.items() if until > now + _EPS}

    # -- the decision tick ----------------------------------------------------
    def apply_due(self, run: SchedRun) -> None:
        """Fire the decision round if a tick is due at ``run.now``."""
        now = run.now
        if self._next_tick > now + _EPS:
            return
        running = run.running
        # Catch up ticks the event loop skipped while idle: at most one
        # decision round fires, at `now`, and the next tick is strictly
        # in the future (the loop's progress guarantee).  The next tick is
        # the first whole number of intervals on that lands past `now`,
        # found in O(1) (one interval at a time, a tick far ahead took
        # that many additions, and forever where `now + interval == now`).
        # The quotient is checked one either side; at whole-second
        # intervals `k * interval` is exactly `k` additions.  Where no
        # interval fits past `now`, the next tick is the next float.
        interval = float(self.config.interval)
        k = max(1, math.floor((now + _EPS - self._next_tick) / interval))
        ahead = [t for t in (self._next_tick + j * interval for j in (k, k + 1, k + 2)) if t > now + _EPS]
        self._next_tick = ahead[0] if ahead else math.nextafter(now + _EPS, math.inf)
        self.ticks += 1
        if not running:
            self.log.append("tick", t=now, job="-", jobs=0)
            return
        obs = build_observation(run)
        cutoff = self.config.migrate_suspicion * obs.quarantine_threshold
        gray = obs.gray_nodes(cutoff) if cutoff != float("inf") else []
        # Gray nodes stay off-limits to autoscale growth until the brain
        # looks again (next tick), whatever the brain decides below.
        for node in gray:
            self._avoid[node] = max(self._avoid.get(node, 0.0), self._next_tick)
        self.log.append("tick", t=now, job="-", jobs=len(running), gray=sorted(gray))
        actions = self.autotuner.decide(obs)
        by_name = {record.spec.name: record for record in running}
        applied = 0
        acted: set[str] = set()
        for action in actions:
            if applied >= self.config.max_actions:
                self._decline(action, now, "per-tick action cap reached")
                continue
            problem = self._validate(action, run, by_name, acted)
            if problem is not None:
                self._decline(action, now, problem)
                continue
            self._apply(action, run, by_name[action.job])
            acted.add(action.job)
            applied += 1

    # -- validation -----------------------------------------------------------
    def _validate(self, action: Action, run: SchedRun, by_name, acted) -> str | None:
        """Reason the action cannot apply, or ``None`` if it can."""
        state = run.state
        if action.kind not in ACTION_KINDS:  # pragma: no cover - Action checks
            return f"unknown kind {action.kind!r}"
        record = by_name.get(action.job)
        if record is None:
            return "job is not running"
        if action.job in acted:
            return "one action per job per tick"
        if self.grow_frozen(action.job, run.now):
            return "dwell window active"
        spec = record.spec
        gpus = run.scheduler.job_gpus(spec)
        if action.kind in ("migrate", "shrink"):
            if action.src is None or action.src not in record.nodes:
                return f"src {action.src} is not in the allocation"
        if action.kind == "shrink" and len(record.nodes) <= spec.min_nodes:
            return f"gang floor: already at min_nodes={spec.min_nodes}"
        if action.kind == "grow" and len(record.nodes) >= spec.max_nodes:
            return f"gang ceiling: already at max_nodes={spec.max_nodes}"
        if action.kind in ("migrate", "grow"):
            dst = action.dst
            if dst is None or not 0 <= dst < state.num_nodes:
                return f"dst {dst} is not a cluster node"
            if dst in record.nodes:
                return f"dst {dst} is already in the allocation"
            if not state.is_up(dst):
                return f"dst {dst} is down"
            if state.free_gpus(dst) < gpus:
                return f"dst {dst} has {state.free_gpus(dst)} free GPUs, need {gpus}"
        return None

    # -- application ----------------------------------------------------------
    def _apply(self, action: Action, run: SchedRun, record) -> None:
        now, state, scheduler = run.now, run.state, run.scheduler
        spec = record.spec
        gpus = scheduler.job_gpus(spec)
        detail = {"reason": action.reason, "nodes_before": sorted(record.nodes)}
        if action.kind == "migrate":
            state.release(spec.name, [action.src])
            record.nodes.remove(action.src)
            state.place(spec.name, [action.dst], gpus)
            record.nodes.append(action.dst)
            record.mark_waypoint()
            if record.membership is not None:
                # Same-size reshuffle = one join + one revoke: the node
                # count is unchanged but both membership epochs land in
                # the replayed trace, exactly like a warned replacement.
                record.membership.join()
                record.membership.revoke()
            self.migrations += 1
            detail.update(src=action.src, dst=action.dst)
        elif action.kind == "shrink":
            state.release(spec.name, [action.src])
            record.nodes.remove(action.src)
            record.shrinks += 1
            record.mark_waypoint()
            if (
                record.membership is not None
                and record.membership.num_nodes > record.membership.min_nodes
            ):
                record.membership.revoke()
            state.set_comm_intensity(
                spec.name,
                scheduler.comm_intensity(spec, nodes=len(record.nodes)),
            )
            self.shrinks += 1
            detail.update(src=action.src)
        else:  # grow
            state.place(spec.name, [action.dst], gpus)
            record.nodes.append(action.dst)
            record.grows += 1
            record.mark_waypoint()
            if record.membership is not None:
                record.membership.join()
            state.set_comm_intensity(
                spec.name,
                scheduler.comm_intensity(spec, nodes=len(record.nodes)),
            )
            self.grows += 1
            detail.update(dst=action.dst)
        detail["nodes_after"] = sorted(record.nodes)
        # Freeze the job (and, for departures, the vacated node) for the
        # dwell window so autoscale cannot immediately undo the decision.
        self._job_hold[spec.name] = now + float(self.config.min_dwell)
        if action.kind in ("migrate", "shrink") and action.src is not None:
            self._avoid[action.src] = max(
                self._avoid.get(action.src, 0.0), now + float(self.config.min_dwell)
            )
        self.log.append(action.kind, t=now, job=action.job, **detail)

    def _decline(self, action: Action, now, reason: str) -> None:
        self.declined += 1
        self.log.append(
            "decline",
            t=now,
            job=action.job,
            kind=action.kind,
            src=action.src,
            dst=action.dst,
            reason=reason,
        )

    # -- reporting ------------------------------------------------------------
    def summary(self) -> dict:
        """Plain-dict brain summary embedded in the payload meta."""
        from repro.brain.base import BRAINS

        return {
            "brain": BRAINS.canonical(self.config.name) or self.config.name,
            "ticks": self.ticks,
            "migrations": self.migrations,
            "grows": self.grows,
            "shrinks": self.shrinks,
            "declined": self.declined,
            "events": len(self.log),
            "digest": self.log.digest(),
            "entries": self.log.to_dicts(),
        }


__all__ = ["BrainDriver"]
