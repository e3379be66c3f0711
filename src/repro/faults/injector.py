"""Fault injection into live :class:`~repro.elastic.elastic_trainer.ElasticTrainer` runs.

The injector is the run-side adapter over one
:class:`~repro.faults.windows.FaultWindows` ledger (pending events, open
NIC / straggler / gray-link / slow-disk windows, counters, the
structured :class:`~repro.faults.log.FaultLog`), clocked in wall
iterations; on top of it it owns what only an elastic run has —
corrupted-checkpoint bookkeeping and checkpoint IO pricing.  The trainer
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
from dataclasses import dataclass

from repro.api.registry import build_scheme
from repro.faults.log import FaultLog
from repro.faults.plan import FaultPlan
from repro.faults.registry import FAULTS, gray_jitter_draw
from repro.faults.windows import FaultWindows
from repro.utils.seeding import derive_seed, new_rng

#: How many bytes :func:`_flip_bytes` inverts mid-file.
_FLIP_SPAN = 64

#: What notices each window family, as soon as a step runs under it
#: (the ``source`` of the ``detect`` entry logged beside the ``inject``).
_TELEMETRY = {
    "nic": "per-step bandwidth telemetry",
    "straggler": "per-step straggler telemetry",
    "gray": "per-link loss/latency telemetry",
    "disk": "checkpoint write latency telemetry",
}


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
        # Windows end on integer wall iterations: no expiry slack.
        self.windows = FaultWindows(plan, self.log, expiry_eps=0.0)
        # str(path) -> (event, t_inject) for damaged-but-undetected files.
        self._corrupted: dict[str, tuple[object, float]] = {}
        # (membership epoch, scale, loss) -> degraded comm time breakdown.
        self._breakdown_cache: dict[tuple[int, float, float], object] = {}
        self.lost_iterations = 0
        self.checkpoint_retries = 0

    # -- trainer hooks ---------------------------------------------------------
    def on_iteration(self, trainer, wall, useful, report, x, y) -> int:
        """Fire due faults and expire ended windows; returns the new step."""
        self.windows.expire(wall, report.total_seconds)
        ctx = RunContext(
            trainer=trainer, wall=wall, useful=useful, report=report, x=x, y=y
        )
        for event in self.windows.pop_due(wall):
            FAULTS.get(event.kind)().apply_run(self, event, ctx)
        return ctx.useful

    def on_checkpoint_saved(self, path) -> None:
        """A slot was overwritten: any damage it carried is gone."""
        self._corrupted.pop(str(path), None)

    def on_corrupt_detected(self, path, report) -> None:
        """The CRC verifier rejected ``path`` during a rollback."""
        t = report.total_seconds
        name = os.path.basename(str(path))
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
                path=name,
                attributed=False,
            )
            return
        event, t_inject = record
        self.windows.emit("detect", event, t, path=name, checksum="crc32-mismatch")
        self.windows.recover(
            event,
            t,
            latency_s=round(t - t_inject, 9),
            action="fell back to previous checkpoint",
        )

    # -- fault application helpers (called by Fault subclasses) ----------------
    def crash(self, event, ctx, nodes) -> None:
        """Unwarned loss of ``nodes``; rollback + rebuild via the trainer."""
        windows, report = self.windows, ctx.report
        t0 = report.total_seconds
        windows.inject(event, t0, iteration=ctx.wall, nodes=[int(n) for n in nodes])
        restored, lost, victims = ctx.trainer.revoke(
            nodes, report, ctx.x, ctx.y, ctx.useful, warned=False
        )
        if not victims:
            windows.absorb(
                event, report.total_seconds, "at min_nodes floor or nodes not live"
            )
            return
        # Synchronous training notices the dead peer on the very next
        # collective, so detection is immediate in virtual time.
        windows.emit("detect", event, t0, victims=victims)
        self.lost_iterations += lost
        t1 = report.total_seconds
        windows.recover(
            event,
            t1,
            latency_s=round(t1 - t0, 9),
            lost_iterations=lost,
            world_size=ctx.trainer.membership.world_size,
        )
        ctx.useful = restored

    def _open(self, family, event, ctx, value, node=None, **detail) -> None:
        """Open a window and log its ``inject`` + telemetry ``detect`` pair."""
        t = ctx.report.total_seconds
        self.windows.open(family, event, value, node)
        self.windows.inject(event, t, node=node, iteration=ctx.wall, **detail)
        self.windows.emit("detect", event, t, source=_TELEMETRY[family])

    def degrade_nic(self, event, ctx) -> None:
        """Open a bandwidth-degradation window (duration=0 -> permanent)."""
        scale = float(event.scale)
        self._open("nic", event, ctx, scale, scale=scale)

    def add_straggler(self, event, ctx) -> None:
        """Pin a compute-stretch factor on one node for a window."""
        live = ctx.trainer.membership.live_nodes
        if event.node is not None:
            node = int(event.node)
        else:
            node = int(self.rng.choice(live))
        if node not in live:
            self.windows.injected += 1  # counted, though nothing was perturbed
            self.windows.absorb(
                event, ctx.report.total_seconds, f"node {node} not live"
            )
            return
        stretch = float(event.stretch)
        self._open("straggler", event, ctx, stretch, node, stretch=stretch)

    def gray_net(self, event, ctx) -> None:
        """Open a gray-link window: packet loss + per-iteration jitter."""
        # Each window owns its jitter stream, derived from the plan seed
        # and the fault id — independent of pool width and of every
        # other random stream in the run.
        rng = new_rng(derive_seed(self.plan.seed, "gray-net", event.fault_id))
        self._open(
            "gray",
            event,
            ctx,
            rng,
            loss_rate=float(event.loss_rate),
            jitter=float(event.jitter),
            jitter_dist=event.jitter_dist,
        )

    def slow_disk(self, event, ctx) -> None:
        """Open a fail-slow-disk window stretching checkpoint IO."""
        stretch = float(event.stretch)
        self._open("disk", event, ctx, stretch, stretch=stretch)

    def corrupt_checkpoint(self, event, ctx) -> None:
        """Flip bytes in the newest checkpoint file on disk."""
        t = ctx.report.total_seconds
        stack = ctx.trainer.checkpoint_stack()
        if not stack:
            self.windows.injected += 1  # counted, though nothing was perturbed
            self.windows.absorb(event, t, "no checkpoint on disk")
            return
        path, ckpt_useful = stack[-1]
        _flip_bytes(path)
        self._corrupted[str(path)] = (event, t)
        # No detect entry yet: corruption is latent until the next
        # rollback actually reads the file through the CRC verifier.
        self.windows.inject(
            event,
            t,
            iteration=ctx.wall,
            path=os.path.basename(str(path)),
            checkpoint_useful=int(ckpt_useful),
        )

    # -- step-time perturbations ----------------------------------------------
    def nic_scale(self) -> float:
        """The strongest active degradation (1.0 when links are healthy)."""
        return min((w[1] for w in self.windows.tables["nic"].values()), default=1.0)

    def gray_loss(self) -> float:
        """Combined packet-loss rate across active gray-net windows."""
        survival = 1.0
        for _, _, event, _ in self.windows.tables["gray"].values():
            survival *= 1.0 - event.loss_rate
        return 1.0 - survival

    def comm_jitter(self) -> float:
        """Stochastic comm stretch for *this* step (>= 1).

        Draws once per active gray-net window from that window's seeded
        stream — the jittery half of a gray link, on top of the clean
        retransmission cost :meth:`comm_breakdown` prices.
        """
        stretch = 1.0
        for _, rng, event, _ in self.windows.tables["gray"].values():
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
        stragglers = self.windows.tables["straggler"]
        if not stragglers:
            return factors
        live = membership.live_nodes
        factors = factors.copy()
        for node in sorted(stragglers):
            if node in live:
                factors[membership.node_index(node)] *= stragglers[node][1]
        return factors

    # -- checkpoint IO pricing -------------------------------------------------
    def disk_stretch(self) -> float:
        """Worst active fail-slow-disk stretch (1.0 when disks are healthy)."""
        return max((w[1] for w in self.windows.tables["disk"].values()), default=1.0)

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
        event = max(
            self.windows.tables["disk"].values(),
            key=lambda window: (window[1], -window[2].fault_id),
        )[2]
        t0 = report.total_seconds
        backoff = 0.5 * base
        total = timeout + backoff + base
        self.checkpoint_retries += 1
        self.windows.emit(
            "detect",
            event,
            t0 + timeout,
            action="checkpoint write exceeded budget; abandoned",
            timeout_s=round(float(timeout), 9),
            stretch=float(event.stretch),
        )
        # Not a window closing: the disk is still slow, so not counted.
        self.windows.emit(
            "recover",
            event,
            t0 + total,
            action="retried on fallback slot",
            latency_s=round(float(total), 9),
        )
        return total

    def checkpoint_read_seconds(self, base: float) -> float:
        """Rollback-restore cost: reads stretch like writes, no budget."""
        return base * self.disk_stretch()

    # -- reporting -------------------------------------------------------------
    def metrics(self) -> dict:
        """Summary counters + the log digest, JSON-ready."""
        return {
            "injected": self.windows.injected,
            "recovered": self.windows.recovered,
            "absorbed": self.windows.absorbed,
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
