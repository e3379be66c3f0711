"""Contention-aware multi-tenant scheduling over the virtual cloud cluster.

:class:`MultiTenantScheduler` admits a queue of :class:`~repro.sched.job
.JobSpec` onto one shared virtual cluster and simulates it to completion
on a virtual clock.  The scheduler is the *decision* half — placement,
preemption, autoscale, memoized pricing, the report; everything a
simulation mutates, and the event loop that advances it, is the
:class:`~repro.sched.core.SchedRun` that
:meth:`MultiTenantScheduler.start` hands out:

* **Placement** — feasible nodes (enough free GPUs) are ordered by a
  pluggable policy from :mod:`repro.sched.policies` and the job takes up
  to ``max_nodes`` of them (never fewer than ``min_nodes``).
* **Contention** — co-located jobs split node NIC capacity through
  :meth:`~repro.cluster.network.NetworkModel.contended`; each job's
  throughput comes from the Fig. 1
  :class:`~repro.perf.iteration_model.IterationModel` on its contended
  cluster slice, so a neighbour that hammers the network visibly slows
  you down (and a compute-bound one barely does).
* **Preemption** — a queued job that does not fit may *shrink*
  strictly-lower-priority running jobs toward their ``min_nodes``, one
  node at a time, until it fits; every shrink drives the victim's
  :class:`~repro.elastic.membership.MembershipView` exactly like a
  warned spot revocation.
* **Autoscaling** — while nothing is queued, running jobs grow onto
  idle capacity (priority order, policy-ordered nodes) up to
  ``max_nodes``; the resulting allocation history converts to a
  :class:`~repro.elastic.events.TraceSchedule` replayable through the
  real :class:`~repro.elastic.ElasticTrainer`.
* **Accounting** — per-job queueing delay, completion time, goodput,
  contention slowdown, and dollars (spot or on-demand rates from
  :data:`repro.elastic.events.SPOT_PROFILES`, billed by GPU share);
  cluster-wide makespan, utilization, goodput and deadline hit rate.

Everything is closed-form and deterministic: same jobs + policy =>
bit-identical report.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.elastic.events import SPOT_PROFILES, SpotProfile
from repro.elastic.membership import MembershipView
from repro.perf.iteration_model import IterationModel
from repro.sched.core import SchedRun, admit_key
from repro.sched.job import DONE, RUNNING, JobRecord, JobSpec
from repro.sched.policies import POLICIES, ClusterState, build_policy
from repro.utils.bench import bench_payload

#: Columns of the per-job rows every sched payload carries.
PAYLOAD_COLUMNS = [
    "policy",
    "job",
    "status",
    "priority",
    "nodes",
    "queue_wait_s",
    "jct_s",
    "iterations",
    "goodput_it_per_s",
    "contention_slowdown",
    "grows",
    "shrinks",
    "membership_epochs",
    "cost_usd",
    "deadline_met",
    "final_loss",
]


@dataclass(frozen=True, slots=True)
class JobOutcome:
    """Final accounting for one job under one policy."""

    job: str
    policy: str
    status: str
    priority: int
    nodes: int  # final allocation size
    queue_wait_s: float
    jct_s: float | None
    iterations: float
    goodput_it_per_s: float
    contention_slowdown: float
    grows: int
    shrinks: int
    membership_epochs: int
    cost_usd: float
    deadline_met: bool | None
    waypoints: tuple[tuple[int, int], ...]
    #: Replayed-training final loss; ``None`` for payload-free jobs.
    final_loss: float | None = None

    def row(self) -> list:
        return [
            self.policy,
            self.job,
            self.status,
            self.priority,
            self.nodes,
            round(self.queue_wait_s, 3),
            round(self.jct_s, 3) if self.jct_s is not None else None,
            round(self.iterations, 2),
            round(self.goodput_it_per_s, 4),
            round(self.contention_slowdown, 4),
            self.grows,
            self.shrinks,
            self.membership_epochs,
            round(self.cost_usd, 4),
            self.deadline_met,
            round(self.final_loss, 6) if self.final_loss is not None else None,
        ]


@dataclass
class SchedReport:
    """Structured result of one multi-tenant scheduling run."""

    name: str
    policy: str
    instance: str
    num_nodes: int
    gpus_per_node: int
    seed: int
    jobs: list[JobOutcome] = field(default_factory=list)
    makespan_s: float = 0.0
    total_cost_usd: float = 0.0
    utilization: float = 0.0  # occupied-node-seconds / (nodes * makespan)
    cluster_goodput_it_per_s: float = 0.0
    mean_queue_wait_s: float = 0.0
    deadline_hit_rate: float | None = None
    events: int = 0
    #: Job name -> allocation waypoints, for elastic replay.
    traces: dict[str, tuple[tuple[int, int], ...]] = field(default_factory=dict)
    #: Fault-drill summary + structured event log (plain dict so reports
    #: pickle across the sweep pool); ``None`` when no faults ran.
    fault_log: dict | None = None
    #: Brain decision summary + structured log (same plain-dict shape);
    #: ``None`` when no (active) brain drove the run.
    brain_log: dict | None = None

    def summary(self) -> dict:
        return {
            "makespan_s": round(self.makespan_s, 3),
            "total_cost_usd": round(self.total_cost_usd, 4),
            "utilization": round(self.utilization, 4),
            "cluster_goodput_it_per_s": round(self.cluster_goodput_it_per_s, 4),
            "mean_queue_wait_s": round(self.mean_queue_wait_s, 3),
            "deadline_hit_rate": self.deadline_hit_rate,
            "jobs_done": sum(1 for j in self.jobs if j.status == DONE),
            "events": self.events,
        }

    def bench_payload(self, bench: str | None = None) -> dict:
        return payload_for_reports([self], bench=bench or f"sched_{self.name}")

    def format(self) -> str:
        return self.bench_payload()["text"]


def payload_for_reports(
    reports: Sequence["SchedReport"], *, bench: str = "sched"
) -> dict:
    """One BENCH-schema payload covering one or more policy runs."""
    if not reports:
        raise ValueError("need at least one SchedReport")
    first = reports[0]
    return bench_payload(
        bench,
        title=(
            f"{bench}: {len(first.jobs)} jobs on {first.num_nodes}x"
            f"{first.gpus_per_node} {first.instance} "
            f"({', '.join(r.policy for r in reports)})"
        ),
        columns=PAYLOAD_COLUMNS,
        rows=[outcome.row() for report in reports for outcome in report.jobs],
        meta={
            "instance": first.instance,
            "num_nodes": first.num_nodes,
            "gpus_per_node": first.gpus_per_node,
            "seed": first.seed,
            "policies": [r.policy for r in reports],
            "summary": {r.policy: r.summary() for r in reports},
            **(
                {"faults": {r.policy: r.fault_log for r in reports}}
                if any(r.fault_log is not None for r in reports)
                else {}
            ),
            **(
                {"brain": {r.policy: r.brain_log for r in reports}}
                if any(r.brain_log is not None for r in reports)
                else {}
            ),
        },
    )


class MultiTenantScheduler:
    """Simulate many jobs sharing one virtual cloud cluster.

    Parameters
    ----------
    num_nodes:
        Shared cluster size (whole nodes; jobs slice GPUs within them).
    instance:
        Registered cluster preset (``repro.api`` cluster registry name
        or alias) supplying link specs and spot prices.
    gpus_per_node:
        Override the preset GPU count per node.
    policy:
        Registered placement policy name (see
        :mod:`repro.sched.policies`).
    seed:
        Recorded for provenance; the simulation itself is closed-form
        deterministic (no random draws).
    faults:
        Optional resolved :class:`~repro.faults.plan.FaultPlan`
        (``target="sched"``, ``at`` in virtual seconds).  Each
        :meth:`run` drives a fresh
        :class:`~repro.faults.sched_driver.SchedFaultDriver` from it, so
        one scheduler can replay the same fault storm under several
        policies.  ``None`` keeps every code path bit-identical to a
        fault-free build.
    brain:
        Optional :class:`~repro.brain.base.BrainConfig`.  An *active*
        brain (anything but ``static``) drives a fresh
        :class:`~repro.brain.driver.BrainDriver` per :meth:`run`:
        periodic decision ticks that migrate/shrink/grow running jobs
        through the same state transitions every other decision uses.
        ``None`` — or the inactive ``static`` brain — keeps every code
        path bit-identical to a brain-free build.
    """

    def __init__(
        self,
        *,
        num_nodes: int,
        instance: str = "tencent",
        gpus_per_node: int | None = None,
        policy: str = "bin-pack",
        seed: int = 0,
        name: str = "sched",
        faults=None,
        brain=None,
    ) -> None:
        from repro.api.registry import CLUSTERS, get_cluster

        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        preset = get_cluster(instance)
        self.instance = CLUSTERS.canonical(instance) or instance
        self.preset = preset
        self.num_nodes = num_nodes
        self.gpus_per_node = gpus_per_node if gpus_per_node is not None else preset.gpus
        if self.gpus_per_node < 1:
            raise ValueError(f"gpus_per_node must be >= 1, got {self.gpus_per_node}")
        self.policy_name = POLICIES.canonical(policy) or policy
        self.policy: Callable = build_policy(policy)
        self.seed = seed
        self.name = name
        self.faults = faults
        self.brain = brain
        # The fast-path memoization layer.  Jobs sharing a workload key
        # (profile/scheme-kind/density/resolution/batch/GPU slice) are
        # timing-identical, so the caches are keyed per *key* — a
        # 10k-job trace with a few dozen distinct workload shapes pays
        # for a few dozen IterationModel builds, not hundreds of
        # thousands — and nothing here grows with the number of jobs.
        # All reset per :meth:`start`.
        #: spec shape fields -> workload key (one entry per distinct shape).
        self._key_cache: dict[tuple, tuple] = {}
        #: (workload key, nodes, contention) -> iteration seconds.
        self._time_cache: dict[tuple, float] = {}
        #: (workload key, nodes) -> solo communication share.
        self._intensity_cache: dict[tuple, float] = {}
        # Unknown (custom-registered) clouds bill at the tencent profile.
        self.spot_profile: SpotProfile = SPOT_PROFILES.get(
            self.instance, SPOT_PROFILES["tencent"]
        )

    # -- per-job timing -------------------------------------------------------
    def job_gpus(self, spec: JobSpec) -> int:
        """GPUs the job takes on each of its nodes (default: the whole node)."""
        return spec.gpus_per_node if spec.gpus_per_node is not None else self.gpus_per_node

    def _iteration_model(
        self,
        spec: JobSpec,
        nodes: int,
        contention: float,
        stretch: float = 1.0,
        jitter: float = 1.0,
    ) -> IterationModel:
        from repro.api.registry import build_cluster

        profile = spec.model_profile()
        network = build_cluster(
            self.instance, nodes, gpus_per_node=self.job_gpus(spec)
        )
        return IterationModel(
            network=network,
            profile=profile,
            scheme=spec.scheme,
            resolution=spec.resolved_resolution(profile),
            local_batch=spec.resolved_local_batch(profile),
            density=spec.density,
            contention=contention,
            compute_stretch=stretch,
            comm_jitter=jitter,
        )

    def _workload_key(self, spec: JobSpec) -> tuple:
        shape = (
            spec.profile,
            spec.scheme,
            spec.density,
            spec.resolution,
            spec.local_batch,
            spec.gpus_per_node,
        )
        key = self._key_cache.get(shape)
        if key is None:
            key = self._key_cache[shape] = spec.workload_key(self.job_gpus(spec))
        return key

    def iteration_seconds(
        self,
        spec: JobSpec,
        *,
        nodes: int,
        contention: float = 1.0,
        nic_scale: float = 1.0,
        stretch: float = 1.0,
        jitter: float = 1.0,
    ) -> float:
        """Per-iteration virtual seconds at an allocation + tenant count.

        ``nic_scale`` (an active NIC degradation, <= 1) divides the
        inter-node bandwidth on top of contention; ``stretch`` (an
        active straggler, >= 1) multiplies the FF&BP term; ``jitter``
        (a realised gray-link stretch, >= 1) multiplies the visible
        communication term.  Pure in ``(workload key, nodes,
        contention, nic_scale, stretch, jitter)``, so results are
        memoized per :meth:`start` — the event loop re-prices a job
        whenever a placement, release or fault touches it, and a
        trace-scale queue would otherwise rebuild the same few hundred
        models a hundred thousand times.
        """
        key = (self._workload_key(spec), nodes, contention, nic_scale, stretch, jitter)
        cached = self._time_cache.get(key)
        if cached is None:
            # A link at `nic_scale` bandwidth prices exactly like one
            # split across 1/nic_scale extra tenants.
            cached = self._iteration_model(
                spec, nodes, contention / nic_scale, stretch, jitter
            ).iteration_time()
            self._time_cache[key] = cached
        return cached

    def comm_intensity(self, spec: JobSpec, *, nodes: int) -> float:
        """Solo communication share of the iteration (network-aware input)."""
        key = (self._workload_key(spec), nodes)
        cached = self._intensity_cache.get(key)
        if cached is None:
            breakdown = self._iteration_model(spec, nodes, 1.0).breakdown()
            total = breakdown.total
            cached = 0.0
            if total > 0:
                cached = (
                    breakdown.get("communication") + breakdown.get("compression")
                ) / total
            self._intensity_cache[key] = cached
        return cached

    def hourly_rate(self, spec: JobSpec, nodes: int) -> float:
        """USD/hour for the job's current slice (GPU-share of node price)."""
        price = self.spot_profile.on_demand_hourly
        if spec.preference == "spot":
            price *= self.spot_profile.spot_discount
        share = self.job_gpus(spec) / self.gpus_per_node
        return price * nodes * share

    # -- scheduling decisions -------------------------------------------------
    def _try_preempt(self, job: JobSpec, run: SchedRun) -> bool:
        """Shrink strictly-lower-priority jobs until ``job`` fits.

        Preemption is *targeted and all-or-nothing*: per candidate node
        it plans exactly which lower-priority tenants must release their
        slice for the node to become feasible, and commits the plans
        only when together they admit the job (``min_nodes`` feasible
        nodes).  If the job cannot be admitted even after every eligible
        shrink, nobody shrinks — no victim loses capacity for nothing,
        and freed nodes can't leak to lower-priority queue entries.
        Each victim can lose at most ``len(nodes) - min_nodes`` nodes
        (its elastic floor); every committed shrink drives the victim's
        membership view like a warned revocation.

        Every planned node costs at least one victim one node above its
        floor, so when all eligible victims together hold fewer spare
        nodes than the job still needs there is no plan to search for.
        That total is a function of the occupancy and the priority
        only: it is summed per priority once per ``state.version``
        (``run.spare``) and the common refusal never builds a budget.
        """
        running, state = run.running, run.state
        gpus = self.job_gpus(job)
        needed = job.min_nodes - state.feasible_count(gpus)
        if needed <= 0:
            return False
        version, spare = run.spare
        if version != state.version:
            spare = {}
            for r in running:
                extra = len(r.nodes) - r.spec.min_nodes
                if extra > 0:
                    spare[r.spec.priority] = spare.get(r.spec.priority, 0) + extra
            run.spare = (state.version, spare)
        if sum(n for priority, n in spare.items() if priority < job.priority) < needed:
            return False  # eligible victims cannot give up enough nodes
        budget = {
            r.spec.name: len(r.nodes) - r.spec.min_nodes
            for r in running
            if r.spec.priority < job.priority
        }
        by_name = {r.spec.name: r for r in running}
        # Cheapest nodes first: fewest tenants to displace, most free.
        order = sorted(
            (n for n in range(state.num_nodes) if state.free_gpus(n) < gpus),
            key=lambda n: (state.tenants(n), -state.free_gpus(n), n),
        )
        plans: list[tuple[int, list[str]]] = []
        for node in order:
            shortfall = gpus - state.free_gpus(node)
            plan: list[str] = []
            # Lowest-priority tenants evict first.
            for name in sorted(
                state.jobs_on(node),
                key=lambda j: (by_name[j].spec.priority, j),
            ):
                if budget.get(name, 0) < 1:
                    continue
                plan.append(name)
                shortfall -= state.gpus_of(name, node)
                if shortfall <= 0:
                    break
            if shortfall > 0:
                continue  # this node cannot be freed; leave its tenants be
            plans.append((node, plan))
            for name in plan:
                budget[name] -= 1
            if len(plans) >= needed:
                break
        if len(plans) < needed:
            return False  # the job cannot be admitted; shrink nobody
        for node, plan in plans:
            for name in plan:
                victim = by_name[name]
                state.release(name, [node])
                victim.nodes.remove(node)
                victim.shrinks += 1
                victim.mark_waypoint()
                if victim.membership is not None:
                    victim.membership.revoke()  # warned, scheduler-driven
                state.set_comm_intensity(
                    name, self.comm_intensity(victim.spec, nodes=len(victim.nodes))
                )
        return True

    def _place(self, record: JobRecord, state: ClusterState, now: float) -> bool:
        spec = record.spec
        gpus = self.job_gpus(spec)
        if state.feasible_count(gpus) < spec.min_nodes:
            return False
        ordered = list(self.policy(spec, state.feasible_nodes(gpus), state))
        take = min(spec.max_nodes, len(ordered))
        chosen = ordered[:take]
        state.place(spec.name, chosen, gpus)
        record.nodes = list(chosen)
        record.status = RUNNING
        if record.first_start is None:
            record.first_start = now
            record.membership = MembershipView(
                take, gpus, instance=self.preset, min_nodes=spec.min_nodes
            )
        elif record.membership is not None:
            # Re-placement after a fault requeue: reconcile the
            # membership view with the new allocation size.
            while record.membership.num_nodes < take:
                record.membership.join()
            while (
                record.membership.num_nodes > take
                and record.membership.num_nodes > record.membership.min_nodes
            ):
                record.membership.revoke()
        state.set_comm_intensity(spec.name, self.comm_intensity(spec, nodes=take))
        record.mark_waypoint()
        return True

    def _grow(
        self, record: JobRecord, state: ClusterState, now: float, brain
    ) -> bool:
        spec = record.spec
        if len(record.nodes) >= spec.max_nodes:
            return False
        if brain is not None and brain.grow_frozen(spec.name, now):
            # The brain just rescaled this job; growing it back before
            # the dwell window ends would undo the decision.
            return False
        gpus = self.job_gpus(spec)
        candidates = state.feasible_nodes(gpus, exclude=record.nodes)
        if brain is not None and candidates:
            avoid = brain.avoid_nodes(now)
            if avoid:
                candidates = [n for n in candidates if n not in avoid]
        if not candidates:
            return False
        node = list(self.policy(spec, candidates, state))[0]
        state.place(spec.name, [node], gpus)
        record.nodes.append(node)
        record.grows += 1
        record.mark_waypoint()
        if record.membership is not None:
            record.membership.join()
        # Comm share depends on the node count; keep the network-aware
        # policy's view of this tenant current.
        state.set_comm_intensity(
            spec.name, self.comm_intensity(spec, nodes=len(record.nodes))
        )
        return True

    def schedule(self, run: SchedRun) -> None:
        """Admit what fits at ``run.now``, then autoscale onto idle capacity.

        A failed admission attempt changes nothing (preemption is
        all-or-nothing) and is decided by the occupancy, the placement
        signature and the head's priority alone, so it is stamped
        ``run.refused[sig] = (state.version, priority)`` and a head
        that meets its own stamp fails without being retried.  The
        stamp is the version *at the failure*: a later placement in the
        same scan is a new potential victim the next scan must see.
        """
        queued, running, state, now = run.queued, run.running, run.state, run.now
        refused = run.refused
        # 1. Admit queued jobs in admission order (highest priority,
        # then earliest arrival); preempt if needed.  The scan walks the
        # signature heads in global admission order via a heap, with a
        # *dominance prune*: once a signature fails to place, any
        # not-earlier job needing at least as many GPUs per node and at
        # least as many nodes must fail too — placement success depends
        # only on (gpus, min_nodes), preemption victim budgets only
        # shrink as priority drops, and capacity never grows mid-scan
        # except when a preemption commits, which resets the prune and
        # revives the parked signatures.  Smaller jobs still get their
        # backfill attempt, so admissions match a full scan of the
        # backlog while touching only one head per distinct shape.
        failed: list[tuple[int, int]] = []  # signatures that failed to place
        parked: list[tuple[int, int]] = []  # pruned signatures (revivable)
        heads = [
            (admit_key(records[0]), sig) for sig, records in queued.by_sig.items()
        ]
        heapq.heapify(heads)
        while heads:
            _, sig = heapq.heappop(heads)
            record = queued.by_sig[sig][0]
            spec = record.spec
            gpus, min_nodes = sig
            if any(g <= gpus and m <= min_nodes for g, m in failed):
                parked.append(sig)
                continue
            if refused.get(sig) == (state.version, spec.priority):
                failed.append(sig)
                parked.append(sig)
                continue
            if state.feasible_count(gpus) < min_nodes:
                if self._try_preempt(spec, run):
                    # Committed shrinks freed capacity: previously failed
                    # or pruned shapes may fit now, so reset the prune.
                    failed.clear()
                    for revived in parked:
                        head = queued.by_sig[revived][0]
                        heapq.heappush(heads, (admit_key(head), revived))
                    parked.clear()
            if self._place(record, state, now):
                queued.pop_head(sig)
                running.append(record)
                if sig in queued.by_sig:
                    head = queued.by_sig[sig][0]
                    heapq.heappush(heads, (admit_key(head), sig))
            else:
                refused[sig] = (state.version, spec.priority)
                failed.append(sig)
                parked.append(sig)
        # 2. Autoscale: grow running jobs onto capacity nothing is queued for.
        if not len(queued):
            changed = True
            while changed:
                changed = False
                for record in sorted(
                    running,
                    key=lambda r: (-r.spec.priority, r.spec.arrival_seconds, r.spec.name),
                ):
                    if self._grow(record, state, now, run.brain):
                        changed = True

    # -- driving a run --------------------------------------------------------
    def start(self) -> SchedRun:
        """A fresh, empty :class:`~repro.sched.core.SchedRun` on this cluster.

        Drivers are built per run, so one scheduler replays the same
        fault plan (and brain) identically under every policy.
        """
        self._key_cache.clear()
        self._time_cache.clear()
        self._intensity_cache.clear()
        faults = None
        if self.faults is not None:
            from repro.faults.sched_driver import SchedFaultDriver

            faults = SchedFaultDriver(self.faults)
        brain = None
        if self.brain is not None:
            from repro.brain.base import build_brain
            from repro.brain.driver import BrainDriver

            autotuner = build_brain(self.brain)
            if autotuner.active:
                # Inactive brains (`static`) never get a driver, so the
                # run stays byte-identical to a brain-free build.
                brain = BrainDriver(self.brain, autotuner)
        return SchedRun(self, faults, brain)

    def run(self, jobs: Sequence[JobSpec]) -> SchedReport:
        """Simulate the job set to completion; returns the full report."""
        if not jobs:
            raise ValueError("need at least one JobSpec")
        names = [job.name for job in jobs]
        if len(set(names)) != len(names):
            raise ValueError(f"job names must be unique, got {sorted(names)}")
        run = self.start()
        for job in jobs:
            run.submit(job)
        # The cap scales with the queue, so trace-scale replays never
        # hit it while pathological hand-written scenarios still stop.
        run.drain(max(10_000, 16 * len(jobs)))
        self.replay_payloads(run)
        return self.report(run)

    def replay_payloads(self, run: SchedRun) -> None:
        """Train every placed payload job's allocation history, once.

        The real ElasticTrainer replay runs after — and never feeds back
        into — the closed-form simulation, so scheduling outcomes are
        bit-identical with payloads stripped.
        """
        for record in run.records.values():
            if (
                record.spec.payload is not None
                and record.waypoints
                and record.train_summary is None
            ):
                record.train_summary = self._replay_payload(record)

    def _replay_payload(self, record: JobRecord) -> dict:
        """Train a payload job's allocation history with ElasticTrainer."""
        from repro.api.config import (
            ClusterConfig,
            CommConfig,
            ElasticConfig,
            RunConfig,
            TrainConfig,
        )
        from repro.api.facade import elastic_trainer, workload_for

        spec, payload = record.spec, record.spec.payload
        assert payload is not None  # caller-checked
        # The job starts on its first waypoint's node count; the
        # allocation history after that is the churn schedule.
        config = RunConfig(
            name=spec.name,
            seed=payload.seed,
            cluster=ClusterConfig(
                instance=self.instance,
                num_nodes=record.waypoints[0][1],
                gpus_per_node=self.job_gpus(spec),
            ),
            comm=CommConfig(scheme=spec.scheme, density=spec.density),
            train=TrainConfig(
                model=payload.model,
                num_samples=payload.num_samples,
                local_batch=payload.local_batch,
                lr=payload.lr,
                momentum=payload.momentum,
            ),
            elastic=ElasticConfig(
                iterations=spec.iterations, schedule="none", min_nodes=spec.min_nodes
            ),
        )
        workload = workload_for(config)
        report = elastic_trainer(config, workload).run(
            workload.x,
            workload.y,
            iterations=spec.iterations,
            local_batch=payload.local_batch,
            schedule=record.to_trace_schedule(),
        )
        return {
            "model": payload.model,
            "final_loss": report.final_loss,
            "useful_iterations": report.useful_iterations,
            "revocations": report.revocations,
            "joins": report.joins,
        }

    def report(self, run: SchedRun) -> SchedReport:
        """The :class:`SchedReport` of ``run`` at its current virtual time."""
        makespan = run.now
        outcomes = []
        for record in run.records.values():
            outcomes.append(
                JobOutcome(
                    job=record.spec.name,
                    policy=self.policy_name,
                    status=record.status,
                    priority=record.spec.priority,
                    nodes=len(record.nodes),
                    queue_wait_s=record.queue_wait(makespan),
                    jct_s=record.jct(),
                    iterations=record.progress,
                    goodput_it_per_s=(
                        record.progress / record.running_seconds
                        if record.running_seconds
                        else 0.0
                    ),
                    contention_slowdown=record.contention_slowdown(),
                    grows=record.grows,
                    shrinks=record.shrinks,
                    membership_epochs=(
                        record.membership.epoch if record.membership is not None else 0
                    ),
                    cost_usd=record.cost_usd,
                    deadline_met=record.deadline_met(),
                    waypoints=tuple(record.waypoints),
                    final_loss=(
                        record.train_summary["final_loss"]
                        if record.train_summary is not None
                        else None
                    ),
                )
            )
        outcomes.sort(key=lambda o: o.job)
        deadlines = [o.deadline_met for o in outcomes if o.deadline_met is not None]
        total_iterations = sum(o.iterations for o in outcomes)
        report = SchedReport(
            name=self.name,
            policy=self.policy_name,
            instance=self.instance,
            num_nodes=self.num_nodes,
            gpus_per_node=self.gpus_per_node,
            seed=self.seed,
            jobs=outcomes,
            makespan_s=makespan,
            total_cost_usd=sum(o.cost_usd for o in outcomes),
            utilization=(
                run.occupied_node_seconds / (self.num_nodes * makespan)
                if makespan
                else 0.0
            ),
            cluster_goodput_it_per_s=(
                total_iterations / makespan if makespan else 0.0
            ),
            mean_queue_wait_s=(
                sum(o.queue_wait_s for o in outcomes) / len(outcomes)
            ),
            deadline_hit_rate=(
                sum(deadlines) / len(deadlines) if deadlines else None
            ),
            events=run.events,
            traces={o.job: o.waypoints for o in outcomes},
        )
        if run.faults is not None:
            report.fault_log = run.faults.summary()
        if run.brain is not None:
            report.brain_log = run.brain.summary()
        return report


def compare_policies(
    jobs: Sequence[JobSpec],
    policies: Sequence[str],
    *,
    num_nodes: int,
    instance: str = "tencent",
    gpus_per_node: int | None = None,
    seed: int = 0,
    name: str = "sched",
    faults=None,
    brain=None,
) -> dict[str, SchedReport]:
    """Run the same job set under several placement policies.

    ``faults`` is an optional resolved ``FaultPlan`` (target ``sched``);
    the identical storm replays under every policy.  ``brain`` is an
    optional :class:`~repro.brain.base.BrainConfig` applied to every
    policy run the same way.
    """
    if not policies:
        raise ValueError("need at least one policy")
    canonical = [POLICIES.canonical(p) or p for p in policies]
    duplicates = sorted({p for p in canonical if canonical.count(p) > 1})
    if duplicates:
        # Aliases resolve to one report key; running twice and silently
        # overwriting would waste a simulation and drop output.
        raise ValueError(
            f"policies resolve to duplicate entries: {', '.join(duplicates)}"
        )
    reports: dict[str, SchedReport] = {}
    for policy in policies:
        scheduler = MultiTenantScheduler(
            num_nodes=num_nodes,
            instance=instance,
            gpus_per_node=gpus_per_node,
            policy=policy,
            seed=seed,
            name=name,
            faults=faults,
            brain=brain,
        )
        reports[scheduler.policy_name] = scheduler.run(jobs)
    return reports


__all__ = [
    "PAYLOAD_COLUMNS",
    "JobOutcome",
    "SchedReport",
    "payload_for_reports",
    "MultiTenantScheduler",
    "compare_policies",
]
