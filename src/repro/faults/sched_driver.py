"""Fault injection into the closed-form multi-tenant scheduler.

The driver is the sched-side adapter over one
:class:`~repro.faults.windows.FaultWindows` ledger (pending
:class:`~repro.faults.plan.FaultPlan` events, open NIC / straggler /
gray-link windows, counters, the structured
:class:`~repro.faults.log.FaultLog`), clocked in virtual seconds; on top
of it it owns what only a cluster has — downed nodes awaiting repair,
requeued jobs awaiting re-placement, and the node-health ledger feed.

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
from typing import TYPE_CHECKING

from repro.faults.health import NodeHealthLedger
from repro.faults.log import FaultLog
from repro.faults.plan import FaultPlan
from repro.faults.registry import FAULTS, gray_jitter_draw
from repro.faults.windows import FaultWindows
from repro.utils.seeding import new_rng

if TYPE_CHECKING:
    from repro.sched.core import SchedRun


#: What notices each window family at the event it opens on (the
#: ``source`` of the ``detect`` entry logged beside the ``inject``).
_TELEMETRY = {
    "nic": "per-event bandwidth repricing",
    "straggler": "per-event straggler repricing",
    "gray": "per-link loss/latency telemetry",
}


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
        # Windows end on accumulated virtual seconds: same slack as "due".
        self.windows = FaultWindows(plan, self.log, expiry_eps=1e-12)
        #: node -> (repair time or inf, event).
        self._down: dict[int, tuple[float, object]] = {}
        #: job name -> (event, t_detect) for requeued jobs awaiting re-placement.
        self._awaiting_replace: dict[str, tuple[object, float]] = {}
        #: Per-node suspicion scores the fault-aware policy reads; its
        #: timeline depends only on the plan, never on placement, so it
        #: is identical under every policy compared against one storm.
        self.health = NodeHealthLedger(plan.config)
        self.requeues = 0
        self.lost_iterations = 0.0

    # -- scheduler hooks -------------------------------------------------------
    def next_boundary(self, now: float) -> float | None:
        """Earliest future fault-timeline point, or ``None``."""
        horizon = now + 1e-12
        times = [t for t in self.windows.boundaries() if t > horizon]
        times += [t for t, _ in self._down.values() if horizon < t < math.inf]
        probe_at = self.health.next_boundary(now)
        if probe_at is not None:
            times.append(probe_at)
        return min(times, default=None)

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
                self.windows.emit("repair", event, now, node=node)
        self.windows.expire(now, now)
        for event in self.windows.pop_due(now):
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
            self.windows.recover(
                event,
                ctx.now,
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
        windows, now = self.windows, ctx.now
        victims = [int(n) for n in nodes if ctx.state.is_up(int(n))]
        windows.inject(event, now, nodes=[int(n) for n in nodes])
        if not victims:
            windows.absorb(event, now, "no targeted node is up")
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
        windows.emit("detect", event, now, victims=victims, jobs=sorted(affected))
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
                windows.recover(
                    event,
                    now,
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
                windows.emit(
                    "detect",
                    event,
                    now,
                    job=name,
                    lost_iterations=round(lost, 6),
                    action="below min_nodes; requeued",
                )

    def _open(self, family, event, now, value, node=None, **detail) -> None:
        """Open a window, log its ``inject`` + repricing ``detect`` pair,
        and feed the health ledger when the window sits on one node."""
        self.windows.open(family, event, value, node)
        self.windows.inject(event, now, node=node, **detail)
        self.windows.emit("detect", event, now, source=_TELEMETRY[family])
        if node is not None:
            self._observe_health(event, now, node)

    def _target_node(self, event, ctx: SchedRun) -> int | None:
        """The explicit or seeded-pick node of ``event``; absorbs the
        fault (and returns ``None``) when that node is not up."""
        if event.node is not None:
            node = int(event.node)
        else:
            picked = self.pick_up_nodes(ctx, 1)
            node = picked[0] if picked else -1
        if 0 <= node < ctx.state.num_nodes and ctx.state.is_up(node):
            return node
        self.windows.injected += 1  # counted, though nothing was perturbed
        self.windows.absorb(event, ctx.now, f"node {node} not up")
        return None

    def degrade_nic(self, event, ctx: SchedRun) -> None:
        scale = float(event.scale)
        self._open("nic", event, ctx.now, scale, scale=scale)

    def add_straggler(self, event, ctx: SchedRun) -> None:
        node = self._target_node(event, ctx)
        if node is not None:
            stretch = float(event.stretch)
            self._open("straggler", event, ctx.now, stretch, node, stretch=stretch)

    def gray_net(self, event, ctx: SchedRun) -> None:
        """Pin a gray-link window — loss + realised jitter — on one node.

        The closed-form scheduler cannot redraw jitter per iteration, so
        one seeded draw realises the window's expected stretch:
        ``1 / (1 - loss_rate)`` retransmissions times ``1 + jitter``.
        """
        node = self._target_node(event, ctx)
        if node is None:
            return
        stretch = (1.0 / (1.0 - event.loss_rate)) * (
            1.0 + gray_jitter_draw(event, self.rng)
        )
        self._open(
            "gray",
            event,
            ctx.now,
            stretch,
            node,
            loss_rate=float(event.loss_rate),
            jitter=float(event.jitter),
            jitter_dist=event.jitter_dist,
            stretch=round(stretch, 9),
        )

    def _observe_health(self, event, now: float, node: int) -> None:
        """Feed one fault observation to the ledger; log new quarantines."""
        if self.health.observe(node, now, event.kind):
            self.windows.emit(
                "quarantine",
                event,
                now,
                node=node,
                suspicion=round(self.health.suspicion(node, now), 9),
                probe_at=round(now + self.health.policy.probe_cooldown, 9),
            )

    # -- pricing inputs --------------------------------------------------------
    def pricing_inputs(self) -> tuple:
        """Everything the three queries below read, as one comparable value.

        ``()`` while links and nodes are healthy.  The event loop keeps
        its prices while this equals the previous event's value; it is
        derived from the content of the ledger's ``nic`` / ``straggler``
        / ``gray`` tables, so a fault plugin that opens its windows
        through ``driver.windows.open`` needs no bookkeeping.
        """
        tables = self.windows.tables
        nic, stragglers, gray = tables["nic"], tables["straggler"], tables["gray"]
        if not (nic or stragglers or gray):
            return ()
        return (
            tuple(window[1] for window in nic.values()),
            tuple((node, window[1]) for node, window in stragglers.items()),
            tuple((node, window[1]) for node, window in gray.items()),
        )

    def active_nic_scale(self) -> float:
        """The strongest active degradation (1.0 when links are healthy)."""
        nic = self.windows.tables["nic"]
        if not nic:
            return 1.0
        return min(window[1] for window in nic.values())

    def stretch_for(self, nodes) -> float:
        """Worst straggler stretch across an allocation (>= 1)."""
        stragglers = self.windows.tables["straggler"]
        stretch = 1.0
        if stragglers:
            for node in nodes:
                window = stragglers.get(node)
                if window is not None and window[1] > stretch:
                    stretch = window[1]
        return stretch

    def jitter_for(self, nodes) -> float:
        """Worst gray-link comm stretch across an allocation (>= 1).

        Synchronous collectives cross every member's NIC, so one gray
        node jitters the whole job — rounded so the scheduler's memo
        key stays platform-stable.
        """
        gray = self.windows.tables["gray"]
        if not gray:
            return 1.0
        jitter = 1.0
        for node in nodes:
            window = gray.get(node)
            if window is not None and window[1] > jitter:
                jitter = window[1]
        return round(jitter, 9)

    # -- reporting -------------------------------------------------------------
    def summary(self) -> dict:
        """Counters + log digest + the full entry list, JSON/pickle-safe."""
        return {
            "injected": self.windows.injected,
            "recovered": self.windows.recovered,
            "absorbed": self.windows.absorbed,
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
