"""Fault injection into the closed-form multi-tenant scheduler.

The driver owns all mutable fault state for one
:class:`~repro.sched.scheduler.MultiTenantScheduler` run: pending
:class:`~repro.faults.plan.FaultPlan` events (``at`` in virtual
seconds), downed nodes awaiting repair, active NIC-degradation and
straggler windows, and the structured :class:`~repro.faults.log.FaultLog`.

The event loop (:class:`~repro.sched.core.SchedRun`) consults
:meth:`next_boundary` when picking its piecewise-constant horizon (so a
fault lands exactly on a scheduler event), calls :meth:`apply_due` at
the top of every event, and prices running jobs with
:meth:`active_nic_scale` / :meth:`stretch_for`.  Every hook's ``ctx``
is that run itself; fault plugins read its ``scheduler`` / ``now`` /
``state`` / ``queued`` / ``running``.
Crashes evict tenants through the normal ``ClusterState`` release path
and roll their progress back to the last implied checkpoint
(``plan.config.checkpoint_iterations``); a victim pushed below ``min_nodes``
requeues through the ordinary admission queue, and its
detection-to-recovery latency is the virtual time until the scheduler
re-places it.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING

from repro.faults.health import NodeHealthLedger
from repro.faults.log import FaultLog
from repro.faults.plan import FaultPlan
from repro.faults.registry import FAULTS, gray_jitter_draw
from repro.utils.seeding import new_rng

if TYPE_CHECKING:
    from repro.sched.core import SchedRun


class SchedFaultDriver:
    """Applies a :class:`FaultPlan` to one scheduler simulation."""

    def __init__(self, plan: FaultPlan, log: FaultLog | None = None) -> None:
        if plan.target != "sched":
            raise ValueError(
                f"SchedFaultDriver needs a 'sched' plan, got target {plan.target!r}"
            )
        self.plan = plan
        self.log = log if log is not None else FaultLog()
        self.rng = new_rng(plan.seed)
        self._pending = deque(plan.events)  # already sorted by (at, fault_id)
        #: node -> (repair time or inf, event).
        self._down: dict[int, tuple[float, object]] = {}
        self._nic: list[tuple[float, float, object]] = []
        self._stragglers: dict[int, tuple[float, float, object]] = {}
        #: node -> (window end, realised comm stretch, event) gray links.
        self._gray: dict[int, tuple[float, float, object]] = {}
        #: job name -> (event, t_detect) for requeued jobs awaiting re-placement.
        self._awaiting_replace: dict[str, tuple[object, float]] = {}
        #: Per-node suspicion scores the fault-aware policy reads; its
        #: timeline depends only on the plan, never on placement, so it
        #: is identical under every policy compared against one storm.
        self.health = NodeHealthLedger(plan.config)
        self.injected = 0
        self.recovered = 0
        self.absorbed = 0
        self.requeues = 0
        self.lost_iterations = 0.0

    # -- scheduler hooks -------------------------------------------------------
    def next_boundary(self, now: float) -> float | None:
        """Earliest future fault-timeline point, or ``None``."""
        times: list[float] = []
        if self._pending:
            times.append(self._pending[0].at)
        times.extend(t for t, _ in self._down.values() if not math.isinf(t))
        times.extend(until for until, _, _ in self._nic if not math.isinf(until))
        times.extend(
            until for until, _, _ in self._stragglers.values() if not math.isinf(until)
        )
        times.extend(
            until for until, _, _ in self._gray.values() if not math.isinf(until)
        )
        probe_at = self.health.next_boundary(now)
        if probe_at is not None:
            times.append(probe_at)
        future = [t for t in times if t > now + 1e-12]
        return min(future) if future else None

    def apply_due(self, ctx: SchedRun) -> None:
        """Probe, repair, expire, and inject everything due at ``ctx.now``."""
        now = ctx.now
        for node in self.health.due_probes(now):
            score = self.health.probe(node, now)
            self.log.append(
                "probe",
                t=now,
                kind="health",
                fault_id=-1,
                target="sched",
                node=node,
                suspicion=round(score, 9),
                action="cool-down elapsed; node returned to candidate pool",
            )
        for node in sorted(self._down):
            repair_at, event = self._down[node]
            if repair_at <= now + 1e-12:
                del self._down[node]
                ctx.state.set_up(node)
                self.log.append(
                    "repair",
                    t=now,
                    kind=event.kind,
                    fault_id=event.fault_id,
                    target="sched",
                    node=node,
                )
        still_degraded = []
        for until, scale, event in self._nic:
            if until <= now + 1e-12:
                self.recovered += 1
                self.log.append(
                    "recover",
                    t=now,
                    kind=event.kind,
                    fault_id=event.fault_id,
                    target="sched",
                    action="bandwidth restored",
                )
            else:
                still_degraded.append((until, scale, event))
        self._nic = still_degraded
        for node in sorted(self._stragglers):
            until, _, event = self._stragglers[node]
            if until <= now + 1e-12:
                del self._stragglers[node]
                self.recovered += 1
                self.log.append(
                    "recover",
                    t=now,
                    kind=event.kind,
                    fault_id=event.fault_id,
                    target="sched",
                    node=node,
                    action="compute speed restored",
                )
        for node in sorted(self._gray):
            until, _, event = self._gray[node]
            if until <= now + 1e-12:
                del self._gray[node]
                self.recovered += 1
                self.log.append(
                    "recover",
                    t=now,
                    kind=event.kind,
                    fault_id=event.fault_id,
                    target="sched",
                    node=node,
                    action="link health restored",
                )
        while self._pending and self._pending[0].at <= now + 1e-12:
            event = self._pending.popleft()
            FAULTS.get(event.kind)().apply_sched(self, event, ctx)

    def note_replacements(self, ctx: SchedRun) -> None:
        """Close the recovery loop for requeued jobs the scheduler re-placed."""
        if not self._awaiting_replace:
            return
        running_names = {record.spec.name for record in ctx.running}
        for name in sorted(self._awaiting_replace):
            if name not in running_names:
                continue
            event, t_detect = self._awaiting_replace.pop(name)
            self.recovered += 1
            self.log.append(
                "recover",
                t=ctx.now,
                kind=event.kind,
                fault_id=event.fault_id,
                target="sched",
                job=name,
                latency_s=round(ctx.now - t_detect, 9),
                action="requeued job re-placed",
            )

    # -- fault application helpers (called by Fault subclasses) ----------------
    def up_nodes(self, ctx: SchedRun) -> list[int]:
        return [n for n in range(ctx.state.num_nodes) if ctx.state.is_up(n)]

    def pick_up_nodes(self, ctx: SchedRun, k: int) -> list[int]:
        """Seeded choice of ``k`` distinct up nodes (fewer if scarce)."""
        up = self.up_nodes(ctx)
        if not up:
            return []
        k = min(k, len(up))
        chosen = self.rng.choice(len(up), size=k, replace=False)
        return sorted(int(up[i]) for i in chosen)

    def crash(self, event, ctx: SchedRun, nodes) -> None:
        """Take ``nodes`` down unwarned; shrink or requeue their tenants."""
        now = ctx.now
        self.injected += 1
        victims = [int(n) for n in nodes if ctx.state.is_up(int(n))]
        self.log.append(
            "inject",
            t=now,
            kind=event.kind,
            fault_id=event.fault_id,
            target="sched",
            nodes=[int(n) for n in nodes],
        )
        if not victims:
            self.absorbed += 1
            self.log.append(
                "absorb",
                t=now,
                kind=event.kind,
                fault_id=event.fault_id,
                target="sched",
                reason="no targeted node is up",
            )
            return
        until = event.until
        affected: dict[str, list[int]] = {}
        for node in victims:
            for job in ctx.state.occupants_of(node):
                affected.setdefault(job, []).append(node)
        # Evict tenants first, then mark the nodes down.
        by_name = {record.spec.name: record for record in ctx.running}
        for name in sorted(affected):
            record = by_name[name]
            dropped = affected[name]
            ctx.state.release(name, dropped)
            for node in dropped:
                record.nodes.remove(node)
                if (
                    record.membership is not None
                    and record.membership.num_nodes > record.membership.min_nodes
                ):
                    record.membership.revoke()
        for node in victims:
            ctx.state.set_down(node)
            self._down[node] = (until, event)
        self.log.append(
            "detect",
            t=now,
            kind=event.kind,
            fault_id=event.fault_id,
            target="sched",
            victims=victims,
            jobs=sorted(affected),
        )
        for node in victims:
            self._observe_health(event, now, node)
        # An unwarned crash kills the synchronous step: every affected
        # job rolls back to its last implied checkpoint.
        scheduler = ctx.scheduler
        ckpt = self.plan.config.checkpoint_iterations
        for name in sorted(affected):
            record = by_name[name]
            lost = record.progress - math.floor(record.progress / ckpt) * ckpt
            record.progress -= lost
            self.lost_iterations += lost
            if record.nodes and len(record.nodes) >= record.spec.min_nodes:
                record.shrinks += len(affected[name])
                record.mark_waypoint()
                ctx.state.set_comm_intensity(
                    name,
                    scheduler.comm_intensity(record.spec, nodes=len(record.nodes)),
                )
                self.recovered += 1
                self.log.append(
                    "recover",
                    t=now,
                    kind=event.kind,
                    fault_id=event.fault_id,
                    target="sched",
                    job=name,
                    lost_iterations=round(lost, 6),
                    action="shrunk to surviving nodes",
                )
            else:
                # Below the elastic floor: back to the admission queue.
                if record.nodes:
                    ctx.state.release(name, list(record.nodes))
                    record.nodes.clear()
                from repro.sched.job import QUEUED

                record.status = QUEUED
                ctx.running.remove(record)
                ctx.queued.add(record, scheduler.job_gpus(record.spec))
                self.requeues += 1
                self._awaiting_replace[name] = (event, now)
                self.log.append(
                    "detect",
                    t=now,
                    kind=event.kind,
                    fault_id=event.fault_id,
                    target="sched",
                    job=name,
                    lost_iterations=round(lost, 6),
                    action="below min_nodes; requeued",
                )

    def degrade_nic(self, event, ctx: SchedRun) -> None:
        now = ctx.now
        self.injected += 1
        self._nic.append((event.until, float(event.scale), event))
        self.log.append(
            "inject",
            t=now,
            kind=event.kind,
            fault_id=event.fault_id,
            target="sched",
            scale=float(event.scale),
        )
        self.log.append(
            "detect",
            t=now,
            kind=event.kind,
            fault_id=event.fault_id,
            target="sched",
            source="per-event bandwidth repricing",
        )

    def add_straggler(self, event, ctx: SchedRun) -> None:
        now = ctx.now
        self.injected += 1
        if event.node is not None:
            node = int(event.node)
        else:
            picked = self.pick_up_nodes(ctx, 1)
            node = picked[0] if picked else -1
        if node < 0 or node >= ctx.state.num_nodes or not ctx.state.is_up(node):
            self.absorbed += 1
            self.log.append(
                "absorb",
                t=now,
                kind=event.kind,
                fault_id=event.fault_id,
                target="sched",
                reason=f"node {node} not up",
            )
            return
        self._stragglers[node] = (event.until, float(event.stretch), event)
        self.log.append(
            "inject",
            t=now,
            kind=event.kind,
            fault_id=event.fault_id,
            target="sched",
            node=node,
            stretch=float(event.stretch),
        )
        self.log.append(
            "detect",
            t=now,
            kind=event.kind,
            fault_id=event.fault_id,
            target="sched",
            source="per-event straggler repricing",
        )
        self._observe_health(event, now, node)

    def gray_net(self, event, ctx: SchedRun) -> None:
        """Pin a gray-link window — loss + realised jitter — on one node.

        The closed-form scheduler cannot redraw jitter per iteration, so
        one seeded draw realises the window's expected stretch:
        ``1 / (1 - loss_rate)`` retransmissions times ``1 + jitter``.
        """
        now = ctx.now
        self.injected += 1
        if event.node is not None:
            node = int(event.node)
        else:
            picked = self.pick_up_nodes(ctx, 1)
            node = picked[0] if picked else -1
        if node < 0 or node >= ctx.state.num_nodes or not ctx.state.is_up(node):
            self.absorbed += 1
            self.log.append(
                "absorb",
                t=now,
                kind=event.kind,
                fault_id=event.fault_id,
                target="sched",
                reason=f"node {node} not up",
            )
            return
        stretch = (1.0 / (1.0 - event.loss_rate)) * (
            1.0 + gray_jitter_draw(event, self.rng)
        )
        self._gray[node] = (event.until, stretch, event)
        self.log.append(
            "inject",
            t=now,
            kind=event.kind,
            fault_id=event.fault_id,
            target="sched",
            node=node,
            loss_rate=float(event.loss_rate),
            jitter=float(event.jitter),
            jitter_dist=event.jitter_dist,
            stretch=round(stretch, 9),
        )
        self.log.append(
            "detect",
            t=now,
            kind=event.kind,
            fault_id=event.fault_id,
            target="sched",
            source="per-link loss/latency telemetry",
        )
        self._observe_health(event, now, node)

    def _observe_health(self, event, now: float, node: int) -> None:
        """Feed one fault observation to the ledger; log new quarantines."""
        if self.health.observe(node, now, event.kind):
            self.log.append(
                "quarantine",
                t=now,
                kind=event.kind,
                fault_id=event.fault_id,
                target="sched",
                node=node,
                suspicion=round(self.health.suspicion(node, now), 9),
                probe_at=round(now + self.health.policy.probe_cooldown, 9),
            )

    # -- pricing inputs --------------------------------------------------------
    def pricing_inputs(self) -> tuple:
        """Everything the three queries below read, as one comparable value.

        ``()`` while links and nodes are healthy.  The event loop keeps
        its prices while this equals the previous event's value; it is
        derived from the fields' contents, so a fault plugin that writes
        ``_nic`` / ``_stragglers`` / ``_gray`` directly needs no
        bookkeeping.
        """
        if not (self._nic or self._stragglers or self._gray):
            return ()
        return (
            tuple(scale for _, scale, _ in self._nic),
            tuple((node, window[1]) for node, window in self._stragglers.items()),
            tuple((node, window[1]) for node, window in self._gray.items()),
        )

    def active_nic_scale(self) -> float:
        """The strongest active degradation (1.0 when links are healthy)."""
        if not self._nic:
            return 1.0
        return min(scale for _, scale, _ in self._nic)

    def stretch_for(self, nodes) -> float:
        """Worst straggler stretch across an allocation (>= 1)."""
        if not self._stragglers:
            return 1.0
        stretch = 1.0
        for node in nodes:
            record = self._stragglers.get(node)
            if record is not None:
                stretch = max(stretch, record[1])
        return stretch

    def jitter_for(self, nodes) -> float:
        """Worst gray-link comm stretch across an allocation (>= 1).

        Synchronous collectives cross every member's NIC, so one gray
        node jitters the whole job — rounded so the scheduler's memo
        key stays platform-stable.
        """
        if not self._gray:
            return 1.0
        jitter = 1.0
        for node in nodes:
            record = self._gray.get(node)
            if record is not None:
                jitter = max(jitter, record[1])
        return round(jitter, 9)

    # -- reporting -------------------------------------------------------------
    def summary(self) -> dict:
        """Counters + log digest + the full entry list, JSON/pickle-safe."""
        return {
            "injected": self.injected,
            "recovered": self.recovered,
            "absorbed": self.absorbed,
            "requeues": self.requeues,
            "lost_iterations": round(self.lost_iterations, 6),
            "nodes_down_end": sorted(self._down),
            "health": self.health.summary(),
            "mean_detect_recover_s": self.log.mean_latency(),
            "events": len(self.log),
            "digest": self.log.digest(),
            "entries": self.log.to_dicts(),
        }


__all__ = ["SchedFaultDriver"]
