"""Elastic preemption-aware training over the virtual cloud cluster.

:class:`ElasticTrainer` wraps the synchronous
:class:`~repro.train.trainer.DistributedTrainer` with the recovery loop
an elastic public-cloud job needs (EasyDL-style rescale-without-restart,
checkpoint-rollback for surprise revocations):

* **Periodic checkpoints** via :mod:`repro.train.checkpoint` (params,
  momentum, error-feedback residuals, RNG state) every
  ``checkpoint_every`` useful iterations;
* **Revocation handling** — a *warned* revocation (the two-minute
  warning) checkpoints proactively inside the warning window, so no
  work is lost; a *surprise* revocation rolls back to the last periodic
  checkpoint and replays the lost iterations;
* **Rescale** — after any membership change the communication scheme is
  rebuilt for the new world size (dense, gTop-k, or HiTopKComm — the
  node/GPU hierarchy is re-derived through
  :class:`~repro.elastic.membership.MembershipView`), the dataset is
  round-robin re-sharded, and error-feedback residuals are folded onto
  the surviving ranks so sparsification loses no gradient mass;
* **Straggler composition** — per-iteration node slowdowns from
  :mod:`repro.cluster.variability` stretch the virtual step time, so
  churn and jitter compose in one simulation.

Virtual time is accounted per step: compute (``compute_seconds``
stretched by the slowest node), communication (the scheme's analytic
time model at ``timing_d`` elements — by default the actual gradient
size — stretched flat or hierarchically), plus checkpoint/restart
overheads.  ``node_seconds`` integrates live-VM time for the cost layer
in :mod:`repro.perf.elastic_cost`.
"""

from __future__ import annotations

import pathlib
import tempfile
from dataclasses import dataclass, field

import numpy as np

from repro.api.registry import build_scheme
from repro.cluster.topology import ClusterTopology
from repro.cluster.variability import (
    VariabilityModel,
    straggled_flat_time,
    straggled_hierarchical_time,
)
from repro.comm.hitopkcomm import STEP_INTER_ALLGATHER, HiTopKComm
from repro.elastic.events import JOIN, ChurnEvent
from repro.elastic.membership import MembershipView, fold_residuals
from repro.optim.sgd import SGD
from repro.train.checkpoint import (
    CheckpointCorruptError,
    load_checkpoint,
    save_checkpoint,
)
from repro.train.trainer import DistributedTrainer, TrainableModel
from repro.utils.seeding import derive_seed, new_rng

#: Wall iterations a run may take per useful iteration, so pathological
#: churn schedules terminate.
MAX_WALL_FACTOR = 4


@dataclass
class ElasticRunReport:
    """Accounting record of one elastic training run."""

    scheme: str
    useful_iterations: int = 0
    wall_iterations: int = 0
    lost_iterations: int = 0
    revocations: int = 0
    warned_revocations: int = 0
    joins: int = 0
    rollbacks: int = 0
    checkpoints: int = 0
    #: Checkpoint files found damaged during a rollback (fault drills).
    corrupt_checkpoints: int = 0
    compute_seconds: float = 0.0
    comm_seconds: float = 0.0
    overhead_seconds: float = 0.0
    node_seconds: float = 0.0
    losses: list[float] = field(default_factory=list)
    world_sizes: list[int] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        """Virtual wall-clock: compute + communication + recovery overhead."""
        return self.compute_seconds + self.comm_seconds + self.overhead_seconds

    @property
    def goodput(self) -> float:
        """Useful (non-replayed) iterations per virtual second."""
        return self.useful_iterations / self.total_seconds if self.total_seconds else 0.0

    @property
    def raw_throughput(self) -> float:
        """Attempted iterations per virtual second (ignores lost work)."""
        return self.wall_iterations / self.total_seconds if self.total_seconds else 0.0

    @property
    def lost_fraction(self) -> float:
        """Share of attempted iterations whose work was rolled back."""
        return self.lost_iterations / self.wall_iterations if self.wall_iterations else 0.0

    @property
    def final_loss(self) -> float:
        if not self.losses:
            raise ValueError("no training steps recorded")
        return self.losses[-1]


class ElasticTrainer:
    """Preemption-aware synchronous trainer over an elastic node set.

    Parameters
    ----------
    model:
        A :class:`~repro.train.trainer.TrainableModel`.
    scheme:
        Scheme name for :func:`repro.api.build_scheme`
        (``dense``, ``gtopk``, ``mstopk``, ...), rebuilt on every
        membership change.  ``wire_bytes`` / ``n_samplings`` /
        ``compressor`` (a registered compressor name) are forwarded to
        the builder on every rebuild.
    instance / num_nodes / gpus_per_node / min_nodes:
        Starting cluster shape; GPUs per node is constant (instances
        leave and join whole).
    checkpoint_every:
        Useful iterations between periodic rollback checkpoints.
    compute_seconds:
        Virtual forward+backward time per iteration at spec speed.
    checkpoint_seconds / restart_seconds:
        Virtual cost of writing a checkpoint and of a rescale/restore
        cycle (scheme rebuild + re-shard + restore).
    warning_seconds:
        Advance-warning window; a warned revocation only avoids rollback
        when a checkpoint fits inside it.
    timing_d:
        Gradient size for the analytic comm-time model.  Defaults to the
        model's actual parameter count; set to e.g. ``25_000_000`` to
        account communication as if training the paper's ResNet-50 while
        running a small convergence analogue.
    variability:
        Optional :class:`~repro.cluster.variability.VariabilityModel`;
        per-iteration straggler factors stretch the virtual step time.
    faults:
        Optional :class:`~repro.faults.injector.FaultInjector` carrying
        a seeded fault plan; its hooks fire at the top of every wall
        iteration and during checkpoint save/restore.  ``None`` (the
        default) leaves every code path bit-identical to a build without
        the fault subsystem.
    """

    def __init__(
        self,
        model: TrainableModel,
        *,
        scheme: str = "mstopk",
        density: float = 0.01,
        wire_bytes: int = 4,
        n_samplings: int = 30,
        compressor: str | None = None,
        instance: str = "tencent",
        num_nodes: int = 4,
        gpus_per_node: int = 2,
        min_nodes: int = 1,
        optimizer: SGD | None = None,
        seed: int = 0,
        checkpoint_every: int = 25,
        checkpoint_dir: str | pathlib.Path | None = None,
        compute_seconds: float = 0.05,
        checkpoint_seconds: float = 1.0,
        restart_seconds: float = 15.0,
        warning_seconds: float = 120.0,
        timing_d: int | None = None,
        variability: VariabilityModel | None = None,
        faults=None,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        if compute_seconds < 0 or checkpoint_seconds < 0 or restart_seconds < 0:
            raise ValueError("virtual time constants must be non-negative")
        self.model = model
        self.scheme_name = scheme
        self.density = density
        self.wire_bytes = wire_bytes
        self.n_samplings = n_samplings
        self.compressor = compressor
        self.optimizer = optimizer if optimizer is not None else SGD(lr=0.05)
        self.seed = seed
        self.checkpoint_every = checkpoint_every
        self.compute_seconds = compute_seconds
        self.checkpoint_seconds = checkpoint_seconds
        self.restart_seconds = restart_seconds
        self.warning_seconds = warning_seconds
        self.variability = variability
        self.membership = MembershipView(
            num_nodes, gpus_per_node, instance=instance, min_nodes=min_nodes
        )
        if checkpoint_dir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-elastic-")
            checkpoint_dir = self._tmpdir.name
        checkpoint_dir = pathlib.Path(checkpoint_dir)
        checkpoint_dir.mkdir(parents=True, exist_ok=True)
        # Double-buffered rollback slots: the previous checkpoint stays
        # on disk until a newer one lands, so a corrupted newest file
        # (CheckpointCorruptError on load) still leaves a recovery
        # point.  The stack is newest-last (path, useful_iterations).
        self._ckpt_slots = (
            checkpoint_dir / "rollback-a.npz",
            checkpoint_dir / "rollback-b.npz",
        )
        self._ckpt_stack: list[tuple[pathlib.Path, int]] = []
        self.faults = faults
        self._event_rng = new_rng(derive_seed(seed, "elastic", "events"))
        self._sim_rng = new_rng(derive_seed(seed, "elastic", "stragglers"))
        self.trainer = self._fresh_trainer()
        self.timing_d = (
            timing_d
            if timing_d is not None
            else sum(p.size for p in self.trainer.params.values())
        )
        self._shards: list[tuple[np.ndarray, np.ndarray]] = []
        self._last_ckpt_useful = 0

    # -- construction helpers --------------------------------------------------
    def _fresh_trainer(self) -> DistributedTrainer:
        # Passing the compressor by *name* (not instance) keeps every
        # rebuild's operator state fresh alongside its error feedback.
        scheme = build_scheme(
            self.scheme_name,
            self.membership.network(),
            density=self.density,
            wire_bytes=self.wire_bytes,
            n_samplings=self.n_samplings,
            compressor=self.compressor,
        )
        return DistributedTrainer(
            self.model,
            scheme,
            optimizer=self.optimizer,
            seed=self.seed,
        )

    # -- checkpoint / restore --------------------------------------------------
    def checkpoint_stack(self) -> tuple[tuple[pathlib.Path, int], ...]:
        """On-disk ``(path, useful_iterations)`` entries, newest last."""
        return tuple(self._ckpt_stack)

    def _save_checkpoint(self, report: ElasticRunReport, useful: int) -> None:
        if len(self._ckpt_stack) >= len(self._ckpt_slots):
            path, _ = self._ckpt_stack.pop(0)  # recycle the oldest slot
        else:
            used = {slot for slot, _ in self._ckpt_stack}
            path = next(slot for slot in self._ckpt_slots if slot not in used)
        save_checkpoint(self.trainer, path)
        self._ckpt_stack.append((path, useful))
        self._last_ckpt_useful = useful
        report.checkpoints += 1
        if self.faults is not None:
            # A fail-slow disk stretches the write (and may abandon and
            # retry it against the checkpoint_timeout budget).
            seconds = self.faults.checkpoint_write_seconds(
                self.checkpoint_seconds, report
            )
        else:
            seconds = self.checkpoint_seconds
        self._charge(report, seconds)
        if self.faults is not None:
            self.faults.on_checkpoint_saved(path)

    def _rebuild_from_checkpoint(
        self, report: ElasticRunReport, x: np.ndarray, y: np.ndarray
    ) -> int:
        """Rescale to the current membership and restore a checkpoint.

        Walks the checkpoint stack newest-first; an entry whose file
        fails checksum verification (:class:`CheckpointCorruptError`) is
        dropped and the previous one restores instead.  Returns the
        useful-iteration count of the state actually restored — ``0``
        when every checkpoint was lost and training restarts from the
        initial parameters.
        """
        restored: int | None = None
        while self._ckpt_stack:
            path, ckpt_useful = self._ckpt_stack[-1]
            new_trainer = self._fresh_trainer()
            try:
                meta = load_checkpoint(new_trainer, path, strict_world=False)
            except CheckpointCorruptError:
                self._ckpt_stack.pop()
                report.corrupt_checkpoints += 1
                if self.faults is not None:
                    self.faults.on_corrupt_detected(path, report)
                continue
            orphans = meta.get("residuals")
            ef = getattr(new_trainer.scheme, "ef", None)
            if orphans and ef is not None:
                n = self.membership.gpus_per_node
                old_topo = ClusterTopology(meta["world_size"] // n, n)
                ef.replace(
                    fold_residuals(orphans, old_topo, new_trainer.scheme.topology)
                )
            self.trainer = new_trainer
            restored = ckpt_useful
            break
        if restored is None:
            # Every checkpoint on disk was damaged: restart from the
            # initial parameters (the model rebuilds deterministically
            # from the run seed) with all progress lost.
            self.trainer = self._fresh_trainer()
            restored = 0
        self._last_ckpt_useful = restored
        self._shards = self.membership.reshard(x, y)
        report.world_sizes.append(self.membership.world_size)
        restart = self.restart_seconds
        if self.faults is not None:
            # Restores read the checkpoint back through the same sick disk.
            restart = self.faults.checkpoint_read_seconds(restart)
        self._charge(report, restart)
        return restored

    # -- accounting ------------------------------------------------------------
    def _charge(self, report: ElasticRunReport, seconds: float) -> None:
        report.overhead_seconds += seconds
        report.node_seconds += self.membership.num_nodes * seconds

    def _step_times(self) -> tuple[float, float]:
        """(compute, comm) virtual seconds for one step, straggler-stretched."""
        if self.faults is not None:
            # Active NIC degradation swaps in a time model built on the
            # degraded network; healthy windows hit the plain path.
            breakdown = self.faults.comm_breakdown(self)
        else:
            breakdown = self.trainer.scheme.time_model(self.timing_d)
        if self.variability is not None:
            factors = self.variability.sample_node_factors(
                self.membership.num_nodes, self._sim_rng
            )
        else:
            factors = np.ones(self.membership.num_nodes)
        if self.faults is not None:
            factors = self.faults.straggled_factors(factors, self.membership)
        if isinstance(self.trainer.scheme, HiTopKComm):
            inter = breakdown.get(STEP_INTER_ALLGATHER)
            comm = straggled_hierarchical_time(
                breakdown.total - inter, inter, factors
            )
        else:
            comm = straggled_flat_time(breakdown.total, factors)
        if self.faults is not None:
            # Gray links add a fresh stochastic latency-jitter stretch
            # every step (1.0 outside gray-net windows).
            comm *= self.faults.comm_jitter()
        compute = self.compute_seconds * float(np.max(factors))
        return compute, comm

    def _batches(self, local_batch: int, step: int) -> list[tuple[np.ndarray, np.ndarray]]:
        steps_per_pass = min(len(sx) for sx, _ in self._shards) // local_batch
        if steps_per_pass < 1:
            raise ValueError(
                f"local_batch {local_batch} exceeds the smallest shard "
                f"({min(len(sx) for sx, _ in self._shards)} samples)"
            )
        pos = step % steps_per_pass
        lo, hi = pos * local_batch, (pos + 1) * local_batch
        return [(sx[lo:hi], sy[lo:hi]) for sx, sy in self._shards]

    # -- membership changes ----------------------------------------------------
    def revoke(
        self,
        nodes,
        report: ElasticRunReport,
        x: np.ndarray,
        y: np.ndarray,
        useful: int,
        *,
        warned: bool,
    ) -> tuple[int, int, list[int]]:
        """Simultaneous loss of ``nodes``: a churn revocation or a fault's
        crash / AZ reclaim.

        Revokes every named node that is still live (``None`` draws the
        victim from the event stream) — stopping at the ``min_nodes``
        floor, where the provider keeps capacity — then performs ONE
        rebuild, so a correlated failure costs a single recovery.  A
        *warned* loss (the two-minute warning, when a checkpoint fits
        inside it) checkpoints before the first node leaves and loses no
        work; an unwarned one rolls back to the newest intact
        checkpoint.  Returns ``(restored_useful, lost_iterations,
        victims)``; no live victim means the loss was absorbed and
        nothing changes — no overhead is paid for it.
        """
        warned = warned and self.checkpoint_seconds <= self.warning_seconds
        victims: list[int] = []
        for node in nodes:
            if self.membership.num_nodes <= self.membership.min_nodes:
                break
            if node is not None and node not in self.membership.live_nodes:
                continue
            if warned and not victims:
                # Checkpoint while the node is still live (and billed).
                self._save_checkpoint(report, useful)
            victims.append(int(self.membership.revoke(node, rng=self._event_rng)))
            report.revocations += 1
        if not victims:
            return useful, 0, []
        if warned:
            report.warned_revocations += len(victims)
        restored = self._rebuild_from_checkpoint(report, x, y)
        lost = useful - restored
        # A warned loss rolls back only when the just-saved checkpoint
        # AND its predecessor were both corrupted by a fault.
        if lost or not warned:
            report.lost_iterations += lost
            report.rollbacks += 1
            del report.losses[restored:]
        return restored, lost, victims

    # -- main loop -------------------------------------------------------------
    def run(
        self,
        x: np.ndarray,
        y: np.ndarray,
        *,
        iterations: int,
        local_batch: int,
        schedule=None,
    ) -> ElasticRunReport:
        """Train for ``iterations`` useful steps under a churn schedule.

        ``schedule`` is any object with
        ``generate(horizon, num_nodes, rng) -> list[ChurnEvent]``
        (:class:`~repro.elastic.events.PoissonChurn`,
        :class:`~repro.elastic.events.TraceSchedule`, or ``None`` for a
        static cluster).  Wall iterations are capped at
        ``iterations * MAX_WALL_FACTOR``.
        """
        if iterations < 1 or local_batch < 1:
            raise ValueError("iterations and local_batch must be >= 1")
        x, y = np.asarray(x), np.asarray(y)
        horizon = iterations * MAX_WALL_FACTOR
        events = (
            schedule.generate(horizon, self.membership.num_nodes, self._event_rng)
            if schedule is not None
            else []
        )
        by_iteration: dict[int, list[ChurnEvent]] = {}
        for event in events:
            by_iteration.setdefault(event.iteration, []).append(event)

        report = ElasticRunReport(scheme=self.trainer.scheme.name)
        report.world_sizes.append(self.membership.world_size)
        self._shards = self.membership.reshard(x, y)
        self._save_checkpoint(report, 0)

        useful = 0
        wall = 0
        while useful < iterations and wall < horizon:
            if self.faults is not None:
                useful = self.faults.on_iteration(self, wall, useful, report, x, y)
            for event in by_iteration.get(wall, ()):
                if event.kind == JOIN:
                    # Graceful grow: snapshot current state so the
                    # newcomer starts consistent; nothing is lost.
                    self._save_checkpoint(report, useful)
                    self.membership.join()
                    report.joins += 1
                    self._rebuild_from_checkpoint(report, x, y)
                else:
                    useful, _, _ = self.revoke(
                        (event.node,), report, x, y, useful, warned=event.warned
                    )
            loss, _ = self.trainer.train_step(self._batches(local_batch, useful))
            compute, comm = self._step_times()
            report.compute_seconds += compute
            report.comm_seconds += comm
            report.node_seconds += self.membership.num_nodes * (compute + comm)
            report.losses.append(loss)
            useful += 1
            wall += 1
            if useful % self.checkpoint_every == 0 and useful < iterations:
                self._save_checkpoint(report, useful)

        report.useful_iterations = useful
        report.wall_iterations = wall
        return report


__all__ = ["ElasticTrainer", "ElasticRunReport"]
