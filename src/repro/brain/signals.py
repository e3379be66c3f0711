"""What a brain sees: one deterministic snapshot per decision tick.

The :class:`~repro.brain.driver.BrainDriver` builds a
:class:`BrainObservation` from live scheduler state at every tick:
per-node occupancy and health-ledger suspicion, and per-job allocation,
gang window, priority and deadline.  The observation also acts as a closed-form
pricing oracle — :meth:`BrainObservation.throughput` prices a
*hypothetical* allocation size through the scheduler's memoized
:class:`~repro.perf.iteration_model.IterationModel` fast path, so a
brain can weigh a rescale before asking for it.

Everything here is pure arithmetic on the snapshot: no RNG, no wall
clock, no mutation — two identical scheduler states produce
byte-identical observations, which is what keeps brain decisions
bit-identical across repeat runs and ``--jobs`` widths.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.plan import FaultsConfig


@dataclass(frozen=True)
class NodeSignal:
    """One node's health and occupancy at the tick."""

    node: int
    up: bool
    free_gpus: int
    tenants: int
    #: Decayed health-ledger suspicion (0.0 without a fault plan).
    suspicion: float
    quarantined: bool


@dataclass(frozen=True)
class JobSignal:
    """One running job's allocation, gang window, priority and deadline."""

    name: str
    nodes: tuple
    min_nodes: int
    max_nodes: int
    priority: int
    deadline_seconds: float | None


class BrainObservation:
    """Snapshot + pricing oracle handed to :meth:`Autotuner.decide`."""

    def __init__(
        self,
        *,
        now: float,
        nodes: list,
        jobs: list,
        faults: FaultsConfig | None,
        spot_discount: float,
        queued: int,
        scheduler,
        specs: dict,
    ) -> None:
        self.now = now
        self.nodes = list(nodes)
        self.jobs = list(jobs)
        #: Ledger quarantine threshold (``inf`` without a fault plan, so
        #: nothing ever reads as gray on healthy clusters).
        self.quarantine_threshold = (
            faults.quarantine_threshold if faults is not None else float("inf")
        )
        self.spot_discount = spot_discount
        #: Jobs waiting in the admission queue at the tick.
        self.queued = queued
        self._scheduler = scheduler
        self._specs = dict(specs)
        self._by_node = {signal.node: signal for signal in self.nodes}
        self._by_job = {signal.name: signal for signal in self.jobs}

    # -- lookups ---------------------------------------------------------------
    def node(self, node: int) -> NodeSignal:
        return self._by_node[node]

    def job(self, name: str) -> JobSignal:
        return self._by_job[name]

    # -- health helpers --------------------------------------------------------
    def suspicion_fraction(self, node: int) -> float:
        """Suspicion as a fraction of the quarantine threshold, in [0, ...)."""
        signal = self._by_node.get(node)
        if signal is None or self.quarantine_threshold == float("inf"):
            return 0.0
        return signal.suspicion / self.quarantine_threshold

    def is_gray(self, node: int, cutoff: float) -> bool:
        """Whether a node is trending toward quarantine (or down/benched).

        ``cutoff`` is an absolute suspicion score (callers usually pass
        ``migrate_suspicion * quarantine_threshold``).
        """
        signal = self._by_node.get(node)
        if signal is None:
            return False
        return (not signal.up) or signal.quarantined or signal.suspicion >= cutoff

    def gray_nodes(self, cutoff: float) -> list[int]:
        return [s.node for s in self.nodes if self.is_gray(s.node, cutoff)]

    def clean_candidates(self, job: JobSignal, gpus: int, cutoff: float) -> list[int]:
        """Free, up, non-gray nodes the job could take, cleanest first.

        Ordered by (suspicion, tenants, -free GPUs, id) — the same
        cleanest-first shape the ``fault-aware`` policy uses, so brain
        targets and policy placements agree on what "clean" means.
        """
        pool = [
            s
            for s in self.nodes
            if s.up
            and not self.is_gray(s.node, cutoff)
            and s.node not in job.nodes
            and s.free_gpus >= gpus
        ]
        pool.sort(key=lambda s: (s.suspicion, s.tenants, -s.free_gpus, s.node))
        return [s.node for s in pool]

    # -- pricing oracle --------------------------------------------------------
    def job_gpus(self, name: str) -> int:
        """GPUs the job takes on each of its nodes."""
        return self._scheduler.job_gpus(self._specs[name])

    def throughput(self, name: str, node_count: int) -> float:
        """Model-driven solo iterations/second at a hypothetical size.

        Uncontended and fault-free by construction — the clean scaling
        curve a rescale decision is judged against.
        """
        if node_count < 1:
            return 0.0
        seconds = self._scheduler.iteration_seconds(
            self._specs[name], nodes=node_count, contention=1.0
        )
        return 1.0 / seconds if seconds > 0 else 0.0


def build_observation(run) -> BrainObservation:
    """Snapshot a live :class:`~repro.sched.core.SchedRun` for one decision tick."""
    scheduler, now, state = run.scheduler, run.now, run.state
    ledger = state.health
    nodes = []
    for n in range(state.num_nodes):
        nodes.append(
            NodeSignal(
                node=n,
                up=state.is_up(n),
                free_gpus=state.free_gpus(n),
                tenants=state.tenants(n),
                suspicion=(
                    round(ledger.suspicion(n, now), 9) if ledger is not None else 0.0
                ),
                quarantined=(
                    ledger.is_quarantined(n) if ledger is not None else False
                ),
            )
        )
    jobs = []
    specs = {}
    for record in sorted(run.running, key=lambda r: r.spec.name):
        spec = record.spec
        specs[spec.name] = spec
        jobs.append(
            JobSignal(
                name=spec.name,
                nodes=tuple(record.nodes),
                min_nodes=spec.min_nodes,
                max_nodes=spec.max_nodes,
                priority=spec.priority,
                deadline_seconds=spec.deadline_seconds,
            )
        )
    return BrainObservation(
        now=now,
        nodes=nodes,
        jobs=jobs,
        faults=ledger.policy if ledger is not None else None,
        spot_discount=scheduler.spot_profile.spot_discount,
        queued=len(run.queued),
        scheduler=scheduler,
        specs=specs,
    )


__all__ = ["NodeSignal", "JobSignal", "BrainObservation", "build_observation"]
