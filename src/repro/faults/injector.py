"""Fault injection into live :class:`~repro.elastic.elastic_trainer.ElasticTrainer` runs.

The injector owns all mutable fault state for one elastic simulation:
the pending half of the :class:`~repro.faults.plan.FaultPlan`, active
NIC-degradation and straggler windows, corrupted-checkpoint bookkeeping,
and the structured :class:`~repro.faults.log.FaultLog`.  The trainer
calls :meth:`on_iteration` at the top of every wall iteration; faults
flow through the *existing* machinery — crashes revoke nodes via
``MembershipView``, degradations rebuild the comm scheme on a
:meth:`~repro.cluster.network.NetworkModel.degraded` network, and
checkpoint corruption damages real bytes on disk so the CRC verifier in
:mod:`repro.train.checkpoint` performs the detection.

All randomness derives from ``plan.seed`` (never the trainer's RNGs), so
a fault plan neither perturbs the no-fault random streams nor varies
across ``--jobs`` widths.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass

from repro.api.registry import build_scheme
from repro.faults.log import FaultLog
from repro.faults.plan import FaultPlan
from repro.faults.registry import FAULTS, gray_jitter_draw
from repro.utils.seeding import derive_seed, new_rng

#: How many bytes :func:`_flip_bytes` inverts mid-file.
_FLIP_SPAN = 64


@dataclass
class RunContext:
    """Mutable view of the trainer's loop state passed to fault hooks."""

    trainer: object
    wall: int
    useful: int
    report: object
    x: object
    y: object


class FaultInjector:
    """Applies a :class:`FaultPlan` to one elastic training run."""

    def __init__(self, plan: FaultPlan, log: FaultLog | None = None) -> None:
        if plan.target != "run":
            raise ValueError(
                f"FaultInjector needs a 'run' plan, got target {plan.target!r}"
            )
        self.plan = plan
        self.log = log if log is not None else FaultLog()
        self.rng = new_rng(plan.seed)
        self._pending = deque(plan.events)  # already sorted by (at, fault_id)
        # Active windows: (until_wall_iteration, value, event).
        self._nic: list[tuple[float, float, object]] = []
        self._stragglers: dict[int, tuple[float, float, object]] = {}
        # Gray-link windows: (until, event, per-window jitter rng).
        self._gray: list[tuple[float, object, object]] = []
        # Fail-slow disk windows: (until, stretch, event).
        self._disk: list[tuple[float, float, object]] = []
        # str(path) -> (event, t_inject) for damaged-but-undetected files.
        self._corrupted: dict[str, tuple[object, float]] = {}
        # (membership epoch, scale, loss) -> degraded comm time breakdown.
        self._breakdown_cache: dict[tuple[int, float, float], object] = {}
        self.injected = 0
        self.recovered = 0
        self.absorbed = 0
        self.lost_iterations = 0
        self.checkpoint_retries = 0

    # -- trainer hooks ---------------------------------------------------------
    def on_iteration(self, trainer, wall, useful, report, x, y) -> int:
        """Fire due faults and expire ended windows; returns the new step."""
        self._expire(wall, report)
        ctx = RunContext(
            trainer=trainer, wall=wall, useful=useful, report=report, x=x, y=y
        )
        while self._pending and self._pending[0].at <= wall + 1e-12:
            event = self._pending.popleft()
            FAULTS.get(event.kind)().apply_run(self, event, ctx)
        return ctx.useful

    def on_checkpoint_saved(self, path) -> None:
        """A slot was overwritten: any damage it carried is gone."""
        self._corrupted.pop(str(path), None)

    def on_corrupt_detected(self, path, report) -> None:
        """The CRC verifier rejected ``path`` during a rollback."""
        t = report.total_seconds
        record = self._corrupted.pop(str(path), None)
        if record is None:
            # Damage we did not inject (never expected in simulation;
            # logged rather than dropped so drills stay auditable).
            self.log.append(
                "detect",
                t=t,
                kind="checkpoint-corrupt",
                fault_id=-1,
                target="run",
                path=os.path.basename(str(path)),
                attributed=False,
            )
            return
        event, t_inject = record
        self.recovered += 1
        self.log.append(
            "detect",
            t=t,
            kind=event.kind,
            fault_id=event.fault_id,
            target="run",
            path=os.path.basename(str(path)),
            checksum="crc32-mismatch",
        )
        self.log.append(
            "recover",
            t=t,
            kind=event.kind,
            fault_id=event.fault_id,
            target="run",
            latency_s=round(t - t_inject, 9),
            action="fell back to previous checkpoint",
        )

    # -- fault application helpers (called by Fault subclasses) ----------------
    def crash(self, event, ctx, nodes) -> None:
        """Unwarned loss of ``nodes``; rollback + rebuild via the trainer."""
        report = ctx.report
        t0 = report.total_seconds
        self.injected += 1
        self.log.append(
            "inject",
            t=t0,
            kind=event.kind,
            fault_id=event.fault_id,
            target="run",
            iteration=ctx.wall,
            nodes=[int(n) for n in nodes],
        )
        restored, lost, victims = ctx.trainer.apply_fault_revocation(
            nodes, report, ctx.x, ctx.y, ctx.useful
        )
        if not victims:
            self.absorbed += 1
            self.log.append(
                "absorb",
                t=report.total_seconds,
                kind=event.kind,
                fault_id=event.fault_id,
                target="run",
                reason="at min_nodes floor or nodes not live",
            )
            return
        # Synchronous training notices the dead peer on the very next
        # collective, so detection is immediate in virtual time.
        self.log.append(
            "detect",
            t=t0,
            kind=event.kind,
            fault_id=event.fault_id,
            target="run",
            victims=victims,
        )
        self.lost_iterations += lost
        t1 = report.total_seconds
        self.recovered += 1
        self.log.append(
            "recover",
            t=t1,
            kind=event.kind,
            fault_id=event.fault_id,
            target="run",
            latency_s=round(t1 - t0, 9),
            lost_iterations=lost,
            world_size=ctx.trainer.membership.world_size,
        )
        ctx.useful = restored

    def degrade_nic(self, event, ctx) -> None:
        """Open a bandwidth-degradation window (duration=0 -> permanent)."""
        t = ctx.report.total_seconds
        self.injected += 1
        self._nic.append((event.until, float(event.scale), event))
        self.log.append(
            "inject",
            t=t,
            kind=event.kind,
            fault_id=event.fault_id,
            target="run",
            iteration=ctx.wall,
            scale=float(event.scale),
        )
        # Bandwidth telemetry flags the slow link as soon as a step
        # runs over it.
        self.log.append(
            "detect",
            t=t,
            kind=event.kind,
            fault_id=event.fault_id,
            target="run",
            source="per-step bandwidth telemetry",
        )

    def add_straggler(self, event, ctx) -> None:
        """Pin a compute-stretch factor on one node for a window."""
        t = ctx.report.total_seconds
        live = ctx.trainer.membership.live_nodes
        if event.node is not None:
            node = int(event.node)
        else:
            node = int(self.rng.choice(live))
        self.injected += 1
        if node not in live:
            self.absorbed += 1
            self.log.append(
                "absorb",
                t=t,
                kind=event.kind,
                fault_id=event.fault_id,
                target="run",
                reason=f"node {node} not live",
            )
            return
        self._stragglers[node] = (event.until, float(event.stretch), event)
        self.log.append(
            "inject",
            t=t,
            kind=event.kind,
            fault_id=event.fault_id,
            target="run",
            iteration=ctx.wall,
            node=node,
            stretch=float(event.stretch),
        )
        self.log.append(
            "detect",
            t=t,
            kind=event.kind,
            fault_id=event.fault_id,
            target="run",
            source="per-step straggler telemetry",
        )

    def gray_net(self, event, ctx) -> None:
        """Open a gray-link window: packet loss + per-iteration jitter."""
        t = ctx.report.total_seconds
        self.injected += 1
        # Each window owns its jitter stream, derived from the plan seed
        # and the fault id — independent of pool width and of every
        # other random stream in the run.
        rng = new_rng(derive_seed(self.plan.seed, "gray-net", event.fault_id))
        self._gray.append((event.until, event, rng))
        self.log.append(
            "inject",
            t=t,
            kind=event.kind,
            fault_id=event.fault_id,
            target="run",
            iteration=ctx.wall,
            loss_rate=float(event.loss_rate),
            jitter=float(event.jitter),
            jitter_dist=event.jitter_dist,
        )
        self.log.append(
            "detect",
            t=t,
            kind=event.kind,
            fault_id=event.fault_id,
            target="run",
            source="per-link loss/latency telemetry",
        )

    def slow_disk(self, event, ctx) -> None:
        """Open a fail-slow-disk window stretching checkpoint IO."""
        t = ctx.report.total_seconds
        self.injected += 1
        self._disk.append((event.until, float(event.stretch), event))
        self.log.append(
            "inject",
            t=t,
            kind=event.kind,
            fault_id=event.fault_id,
            target="run",
            iteration=ctx.wall,
            stretch=float(event.stretch),
        )
        self.log.append(
            "detect",
            t=t,
            kind=event.kind,
            fault_id=event.fault_id,
            target="run",
            source="checkpoint write latency telemetry",
        )

    def corrupt_checkpoint(self, event, ctx) -> None:
        """Flip bytes in the newest checkpoint file on disk."""
        t = ctx.report.total_seconds
        self.injected += 1
        stack = ctx.trainer.checkpoint_stack()
        if not stack:
            self.absorbed += 1
            self.log.append(
                "absorb",
                t=t,
                kind=event.kind,
                fault_id=event.fault_id,
                target="run",
                reason="no checkpoint on disk",
            )
            return
        path, ckpt_useful = stack[-1]
        _flip_bytes(path)
        self._corrupted[str(path)] = (event, t)
        # No detect entry yet: corruption is latent until the next
        # rollback actually reads the file through the CRC verifier.
        self.log.append(
            "inject",
            t=t,
            kind=event.kind,
            fault_id=event.fault_id,
            target="run",
            iteration=ctx.wall,
            path=os.path.basename(str(path)),
            checkpoint_useful=int(ckpt_useful),
        )

    # -- step-time perturbations ----------------------------------------------
    def nic_scale(self) -> float:
        """The strongest active degradation (1.0 when links are healthy)."""
        if not self._nic:
            return 1.0
        return min(scale for _, scale, _ in self._nic)

    def gray_loss(self) -> float:
        """Combined packet-loss rate across active gray-net windows."""
        survival = 1.0
        for _, event, _ in self._gray:
            survival *= 1.0 - event.loss_rate
        return 1.0 - survival

    def comm_jitter(self) -> float:
        """Stochastic comm stretch for *this* step (>= 1).

        Draws once per active gray-net window from that window's seeded
        stream — the jittery half of a gray link, on top of the clean
        retransmission cost :meth:`comm_breakdown` prices.
        """
        if not self._gray:
            return 1.0
        stretch = 1.0
        for _, event, rng in self._gray:
            stretch *= 1.0 + gray_jitter_draw(event, rng)
        return stretch

    def comm_breakdown(self, trainer):
        """Comm time breakdown for the current step, degradation-aware.

        Covers the deterministic link effects: NIC bandwidth scaling
        and gray-net retransmission loss (jitter is applied separately
        per iteration via :meth:`comm_jitter`).
        """
        scale = self.nic_scale()
        loss = self.gray_loss()
        if scale >= 1.0 and loss <= 0.0:
            return trainer.trainer.scheme.time_model(trainer.timing_d)
        key = (trainer.membership.epoch, scale, loss)
        breakdown = self._breakdown_cache.get(key)
        if breakdown is None:
            network = trainer.membership.network()
            if scale < 1.0:
                network = network.degraded(inter_scale=scale)
            if loss > 0.0:
                network = network.lossy(loss)
            degraded = build_scheme(
                trainer.scheme_name,
                network,
                density=trainer.density,
                wire_bytes=trainer.wire_bytes,
                n_samplings=trainer.n_samplings,
                compressor=trainer.compressor,
            )
            breakdown = degraded.time_model(trainer.timing_d)
            self._breakdown_cache[key] = breakdown
        return breakdown

    def straggled_factors(self, factors, membership):
        """Stretch per-node compute factors for active stragglers."""
        if not self._stragglers:
            return factors
        live = membership.live_nodes
        factors = factors.copy()
        for node in sorted(self._stragglers):
            if node in live:
                _, stretch, _ = self._stragglers[node]
                factors[membership.node_index(node)] *= stretch
        return factors

    # -- checkpoint IO pricing -------------------------------------------------
    def disk_stretch(self) -> float:
        """Worst active fail-slow-disk stretch (1.0 when disks are healthy)."""
        if not self._disk:
            return 1.0
        return max(stretch for _, stretch, _ in self._disk)

    def checkpoint_write_seconds(self, base: float, report) -> float:
        """Virtual cost of one checkpoint write on the (possibly sick) disk.

        Healthy disks pay ``base``.  Under a disk-slow window the write
        stretches; when the stretched cost would exceed the plan's
        ``checkpoint_timeout`` budget, the write is abandoned at the
        budget, backed off for half a healthy write, and retried on the
        fallback slot (a healthy device) — both steps logged under the
        window's fault id.
        """
        stretch = self.disk_stretch()
        if stretch <= 1.0:
            return base
        cost = base * stretch
        timeout = self.plan.config.checkpoint_timeout
        if timeout <= 0 or cost <= timeout + 1e-12:
            return cost
        _, _, event = max(self._disk, key=lambda rec: (rec[1], -rec[2].fault_id))
        t0 = report.total_seconds
        backoff = 0.5 * base
        total = timeout + backoff + base
        self.checkpoint_retries += 1
        self.log.append(
            "detect",
            t=t0 + timeout,
            kind=event.kind,
            fault_id=event.fault_id,
            target="run",
            action="checkpoint write exceeded budget; abandoned",
            timeout_s=round(float(timeout), 9),
            stretch=float(event.stretch),
        )
        self.log.append(
            "recover",
            t=t0 + total,
            kind=event.kind,
            fault_id=event.fault_id,
            target="run",
            action="retried on fallback slot",
            latency_s=round(float(total), 9),
        )
        return total

    def checkpoint_read_seconds(self, base: float) -> float:
        """Rollback-restore cost: reads stretch like writes, no budget."""
        return base * self.disk_stretch()

    # -- window expiry ---------------------------------------------------------
    def _expire(self, wall: int, report) -> None:
        t = report.total_seconds
        still_degraded = []
        for until, scale, event in self._nic:
            if until <= wall:
                self.recovered += 1
                self.log.append(
                    "recover",
                    t=t,
                    kind=event.kind,
                    fault_id=event.fault_id,
                    target="run",
                    action="bandwidth restored",
                )
            else:
                still_degraded.append((until, scale, event))
        self._nic = still_degraded
        for node in sorted(self._stragglers):
            until, _, event = self._stragglers[node]
            if until <= wall:
                del self._stragglers[node]
                self.recovered += 1
                self.log.append(
                    "recover",
                    t=t,
                    kind=event.kind,
                    fault_id=event.fault_id,
                    target="run",
                    node=node,
                    action="compute speed restored",
                )
        still_gray = []
        for until, event, rng in self._gray:
            if until <= wall:
                self.recovered += 1
                self.log.append(
                    "recover",
                    t=t,
                    kind=event.kind,
                    fault_id=event.fault_id,
                    target="run",
                    action="link health restored",
                )
            else:
                still_gray.append((until, event, rng))
        self._gray = still_gray
        still_slow = []
        for until, stretch, event in self._disk:
            if until <= wall:
                self.recovered += 1
                self.log.append(
                    "recover",
                    t=t,
                    kind=event.kind,
                    fault_id=event.fault_id,
                    target="run",
                    action="disk speed restored",
                )
            else:
                still_slow.append((until, stretch, event))
        self._disk = still_slow

    # -- reporting -------------------------------------------------------------
    def metrics(self) -> dict:
        """Summary counters + the log digest, JSON-ready."""
        return {
            "injected": self.injected,
            "recovered": self.recovered,
            "absorbed": self.absorbed,
            "lost_iterations": self.lost_iterations,
            "checkpoint_retries": self.checkpoint_retries,
            "mean_detect_recover_s": self.log.mean_latency(),
            "events": len(self.log),
            "digest": self.log.digest(),
        }


def _flip_bytes(path, span: int = _FLIP_SPAN) -> None:
    """Invert ``span`` bytes in the middle of ``path`` (real disk damage)."""
    size = os.path.getsize(path)
    if size == 0:
        return
    span = min(span, size)
    offset = max(0, size // 2 - span // 2)
    with open(path, "r+b") as handle:
        handle.seek(offset)
        chunk = handle.read(span)
        handle.seek(offset)
        handle.write(bytes(b ^ 0xFF for b in chunk))


__all__ = ["FaultInjector", "RunContext"]
