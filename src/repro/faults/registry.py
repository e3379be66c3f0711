"""Registry of injectable faults — the pluggable failure vocabulary.

Like schemes, models, and policies, faults are registered by name in a
:class:`repro.utils.registry.Registry` (``python -m repro list faults``
prints them).  A fault class declares which simulation targets it can
perturb (``"run"`` — an :class:`~repro.elastic.elastic_trainer.ElasticTrainer`
simulation; ``"sched"`` — a :class:`~repro.sched.scheduler.MultiTenantScheduler`
cluster), validates its plan parameters, and implements ``apply_run`` /
``apply_sched`` against the injector's / driver's helpers and their
:class:`~repro.faults.windows.FaultWindows` ledger.  Built-ins
cover the cloud failure modes the paper's setting implies but never
measures:

============================ ======= ==============================================
name                         targets effect
============================ ======= ==============================================
``node-crash``               both    one node revoked with **no** two-minute warning
``az-reclaim``               both    correlated spot reclaim of a contiguous block
``nic-degrade``              both    inter-node bandwidth scaled down for a window
``straggler``                both    persistent compute stretch on one node
``checkpoint-corrupt``       run     bytes of the newest checkpoint file flipped
``gray-net``                 both    lossy link: packet loss + stochastic latency jitter
``disk-slow``                run     fail-slow disk stretching checkpoint writes/loads
============================ ======= ==============================================

Registering a new fault is a decorator away (``docs/faults.md``,
*Registering your own fault*, has a complete windowed example)::

    from repro.faults import Fault, register_fault

    @register_fault("clock-skew")
    class ClockSkew(Fault):
        targets = frozenset({"run"})

        def apply_run(self, injector, event, ctx):
            injector.windows.inject(event, ctx.report.total_seconds)
"""

from __future__ import annotations

from typing import Iterable

from repro.utils.registry import Registry

#: Simulation surfaces a fault can perturb.
FAULT_TARGETS = ("run", "sched")

FAULTS = Registry("fault")


class FaultError(ValueError):
    """A fault plan is invalid (unknown kind, bad parameters, bad file)."""


def register_fault(name: str, *, aliases: Iterable[str] = (), overwrite: bool = False):
    """Register a :class:`Fault` subclass under ``name``."""
    return FAULTS.register(name, aliases=aliases, overwrite=overwrite)


class Fault:
    """Base class for injectable faults.

    Subclasses are stateless; all mutable state lives in the injector
    (elastic runs) or driver (sched runs) that applies them, so one plan
    can be replayed any number of times.
    """

    #: Which simulation surfaces this fault supports.
    targets: frozenset[str] = frozenset(FAULT_TARGETS)
    #: Instantaneous faults ignore ``duration``; windowed ones honour it
    #: (``duration=0`` means permanent).
    instantaneous: bool = True
    #: One-line effect description (``repro list faults`` + docs table).
    summary: str = ""

    @staticmethod
    def check(event) -> None:
        """Validate one resolved :class:`~repro.faults.plan.FaultEvent`.

        Raise :class:`FaultError` on bad parameters; the generic bounds
        (``at >= 0``, ``duration >= 0``, repeat/period sanity) are
        enforced by the plan before this hook runs.
        """

    def apply_run(self, injector, event, ctx) -> None:
        raise FaultError(
            f"fault {event.kind!r} cannot target elastic runs "
            f"(targets: {', '.join(sorted(self.targets))})"
        )

    def apply_sched(self, driver, event, ctx) -> None:
        raise FaultError(
            f"fault {event.kind!r} cannot target the scheduler "
            f"(targets: {', '.join(sorted(self.targets))})"
        )


@register_fault("node-crash", aliases=("crash",))
class NodeCrash(Fault):
    """One node fails instantly — no two-minute warning, no checkpoint.

    The elastic trainer rolls back to its last checkpoint and replays;
    the scheduler marks the node down, shrinks or requeues its tenants,
    and (with ``duration > 0``) repairs the node later.
    """

    summary = "unwarned single-node failure (optional repair after `duration`)"

    @staticmethod
    def check(event) -> None:
        if event.node is not None and event.node < 0:
            raise FaultError(f"node-crash: node must be >= 0, got {event.node}")

    def apply_run(self, injector, event, ctx) -> None:
        live = ctx.trainer.membership.live_nodes
        if event.node is not None:
            nodes = [int(event.node)]
        else:
            nodes = [int(injector.rng.choice(live))]
        injector.crash(event, ctx, nodes)

    def apply_sched(self, driver, event, ctx) -> None:
        if event.node is not None:
            nodes = [int(event.node)]
        else:
            nodes = driver.pick_up_nodes(ctx, 1)
        driver.crash(event, ctx, nodes)


@register_fault("az-reclaim", aliases=("az", "spot-storm"))
class AzReclaim(Fault):
    """Correlated AZ-wide spot reclaim: a contiguous block of nodes, unwarned.

    ``fraction`` of the live/up nodes (at least one) vanish in the same
    instant — the failure mode one availability zone losing spot
    capacity produces, which uncorrelated Poisson churn never exercises.
    """

    summary = "correlated unwarned loss of a contiguous `fraction` of nodes"

    @staticmethod
    def check(event) -> None:
        if not 0 < event.fraction <= 1:
            raise FaultError(
                f"az-reclaim: fraction must be in (0, 1], got {event.fraction}"
            )

    def apply_run(self, injector, event, ctx) -> None:
        live = ctx.trainer.membership.live_nodes
        nodes = _contiguous_block(live, event.fraction, injector.rng)
        injector.crash(event, ctx, nodes)

    def apply_sched(self, driver, event, ctx) -> None:
        up = driver.up_nodes(ctx)
        nodes = _contiguous_block(up, event.fraction, driver.rng)
        driver.crash(event, ctx, nodes)


def _contiguous_block(nodes, fraction: float, rng) -> list[int]:
    """A seeded contiguous slice of ``nodes`` sized ``fraction`` (>= 1)."""
    nodes = list(nodes)
    if not nodes:
        return []
    k = max(1, int(round(fraction * len(nodes))))
    start = int(rng.integers(0, len(nodes) - k + 1))
    return [int(n) for n in nodes[start:start + k]]


@register_fault("nic-degrade", aliases=("nic", "nic-flap"))
class NicDegrade(Fault):
    """Inter-node bandwidth drops to ``scale`` of healthy for a window.

    Models a sick NIC or congested top-of-rack switch via
    :meth:`repro.cluster.network.NetworkModel.degraded`.  ``repeat`` +
    ``period`` turn one event into a flap train; ``duration=0`` makes
    the degradation permanent.
    """

    instantaneous = False
    summary = "inter-node bandwidth at `scale` for `duration` (flap via repeat/period)"

    @staticmethod
    def check(event) -> None:
        if not 0 < event.scale < 1:
            raise FaultError(
                f"nic-degrade: scale must be in (0, 1), got {event.scale}"
            )

    def apply_run(self, injector, event, ctx) -> None:
        injector.degrade_nic(event, ctx)

    def apply_sched(self, driver, event, ctx) -> None:
        driver.degrade_nic(event, ctx)


@register_fault("straggler", aliases=("slow-node",))
class Straggler(Fault):
    """One node computes ``stretch`` times slower for a window.

    Synchronous training runs at the pace of the slowest worker, so a
    single persistent straggler stalls the whole job — the paper's
    variability model covers transient jitter; this is the stuck-host
    case.
    """

    instantaneous = False
    summary = "per-node compute stretched `stretch`x for `duration`"

    @staticmethod
    def check(event) -> None:
        if event.stretch <= 1:
            raise FaultError(
                f"straggler: stretch must be > 1, got {event.stretch}"
            )
        if event.node is not None and event.node < 0:
            raise FaultError(f"straggler: node must be >= 0, got {event.node}")

    def apply_run(self, injector, event, ctx) -> None:
        injector.add_straggler(event, ctx)

    def apply_sched(self, driver, event, ctx) -> None:
        driver.add_straggler(event, ctx)


#: Distributions gray-net's per-iteration latency jitter can draw from.
JITTER_DISTS = ("exp", "lognormal")


def gray_jitter_draw(event, rng) -> float:
    """One jitter sample (>= 0) for a gray-net event.

    ``exp`` draws with mean ``event.jitter``; ``lognormal`` has median
    ``event.jitter`` and a heavier tail — the occasional multi-RTT
    stall a gray link produces.  The caller supplies the seeded
    generator, so replay is deterministic.
    """
    if event.jitter <= 0:
        return 0.0
    if event.jitter_dist == "lognormal":
        return float(event.jitter * rng.lognormal(0.0, 0.75))
    return float(event.jitter * rng.exponential(1.0))


@register_fault("gray-net", aliases=("gray", "packet-loss"))
class GrayNet(Fault):
    """A gray link: alive, but lossy and jittery — not cleanly degraded.

    ``loss_rate`` retransmissions stretch effective bandwidth by
    ``1 / (1 - loss_rate)`` (via
    :meth:`repro.cluster.network.NetworkModel.lossy`), and on top of
    that every iteration in the window draws a *stochastic* latency
    jitter from ``jitter_dist`` scaled by ``jitter`` — the noisy
    signature that distinguishes a gray failure from ``nic-degrade``'s
    clean bandwidth scale.  Scheduler runs pin the window to one node
    (explicit ``node`` or a seeded pick) and realise one seeded jitter
    draw for the closed form.
    """

    instantaneous = False
    summary = "lossy link: `loss_rate` retransmits + stochastic `jitter` per step"

    @staticmethod
    def check(event) -> None:
        if not 0 <= event.loss_rate < 1:
            raise FaultError(
                f"gray-net: loss_rate must be in [0, 1), got {event.loss_rate}"
            )
        if event.jitter < 0:
            raise FaultError(
                f"gray-net: jitter must be >= 0, got {event.jitter}"
            )
        if event.jitter_dist not in JITTER_DISTS:
            raise FaultError(
                f"gray-net: unknown jitter distribution {event.jitter_dist!r}; "
                f"accepted: {', '.join(JITTER_DISTS)}"
            )
        if event.node is not None and event.node < 0:
            raise FaultError(f"gray-net: node must be >= 0, got {event.node}")

    def apply_run(self, injector, event, ctx) -> None:
        injector.gray_net(event, ctx)

    def apply_sched(self, driver, event, ctx) -> None:
        driver.gray_net(event, ctx)


@register_fault("disk-slow", aliases=("slow-disk", "fail-slow"))
class DiskSlow(Fault):
    """A fail-slow checkpoint disk: writes and loads stretch ``stretch``x.

    While the window is open every checkpoint write (and rollback read)
    costs ``stretch`` times its healthy latency; with a
    ``faults.checkpoint_timeout`` budget set, a write that would exceed
    it is abandoned at the budget and retried on the fallback slot —
    both steps land in the :class:`~repro.faults.log.FaultLog`.
    Elastic runs only: the scheduler's closed form has no checkpoint
    writes to slow down.
    """

    targets = frozenset({"run"})
    instantaneous = False
    summary = "fail-slow disk: checkpoint writes/loads stretched `stretch`x"

    @staticmethod
    def check(event) -> None:
        if event.stretch <= 1:
            raise FaultError(
                f"disk-slow: stretch must be > 1, got {event.stretch}"
            )

    def apply_run(self, injector, event, ctx) -> None:
        injector.slow_disk(event, ctx)


@register_fault("checkpoint-corrupt", aliases=("ckpt-corrupt",))
class CheckpointCorrupt(Fault):
    """Flip bytes in the newest on-disk checkpoint.

    Exercises the *real* detection path: the next rollback hits
    :class:`repro.train.checkpoint.CheckpointCorruptError` from the
    checksum verifier and falls back to the previous (double-buffered)
    checkpoint — or restarts from scratch when none survives.
    Elastic runs only; the scheduler's closed form has no checkpoint
    files to damage.
    """

    targets = frozenset({"run"})
    summary = "newest checkpoint file damaged; detected on next rollback"

    def apply_run(self, injector, event, ctx) -> None:
        injector.corrupt_checkpoint(event, ctx)


__all__ = [
    "FAULTS",
    "FAULT_TARGETS",
    "JITTER_DISTS",
    "gray_jitter_draw",
    "Fault",
    "FaultError",
    "register_fault",
    "NodeCrash",
    "AzReclaim",
    "NicDegrade",
    "Straggler",
    "CheckpointCorrupt",
    "GrayNet",
    "DiskSlow",
]
