"""The live scheduler engine behind ``repro serve``.

:class:`ServeEngine` turns the scheduler into an *incremental* service:
instead of one pre-declared batch driven to completion by
:meth:`~repro.sched.MultiTenantScheduler.run`, jobs are **submitted
while the clock runs** and virtual time advances in bounded ticks.  It
owns no scheduling logic — it drives the same
:class:`~repro.sched.core.SchedRun` event loop the batch path drains
(placement, contention, preemption, autoscale, faults and brain
included), stepping it with an ``until`` bound.  A drained engine fed
the same jobs at once is therefore *bit-identical* to a batch ``run()``
(payload rows, makespan, event counts; the test suite pins this).

What the engine adds is what only a service needs: op decoding, the
exactly-once op-id watermark, ``queue_limit`` backpressure,
late-arrival clamping, the per-tick ``series`` trajectory, the two
determinism witnesses (the per-op chained ``witness`` and the full
:meth:`state_digest`) and snapshot (de)serialisation of the run.

Everything here is deterministic in the op sequence: no wall clock, no
RNG outside the seeded fault plan.  That is what makes the write-ahead
journal (:mod:`repro.serve.journal`) a complete crash-recovery story —
replaying the journaled ops against a fresh (or snapshotted) engine
reconstructs the live state bit for bit.  Two witnesses prove it: every
applied op advances ``witness``, a hash chain over the op, its ack and
everything the op could have touched (cost bounded by the cluster, not
by history), which replay checks op by op; and :meth:`state_digest`
hashes the *whole* state, which is O(history) and therefore taken only
at snapshot cadence, on restore and in ``status`` / payloads.

Exactly-once apply: every mutating op carries a client-assigned,
strictly increasing integer ``id``.  An op whose id the engine has
already consumed is acknowledged as a duplicate without applying —
so an at-least-once client (resend everything unacknowledged after a
crash) composes into exactly-once admission.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, ClassVar

from repro.api.config import ClusterConfig, ConfigError, JsonConfig, load
from repro.brain.base import BrainConfig
from repro.faults.plan import FaultPlan, FaultsConfig
from repro.sched.job import JobSpec
from repro.sched.policies import POLICIES
from repro.sched.scheduler import MultiTenantScheduler, SchedReport, payload_for_reports
from repro.utils.eventlog import digest16

_EPS = 1e-12

#: ``witness`` of an engine that has applied nothing yet.
GENESIS_WITNESS = "0" * 16


def _record_state(record) -> list:
    """The digest-relevant mutable fields of one job record."""
    return [
        record.status,
        record.progress,
        sorted(record.nodes),
        record.grows,
        record.shrinks,
        record.cost_usd,
        record.running_seconds,
        record.solo_equivalent,
        record.membership.epoch if record.membership is not None else 0,
        record.waypoints,
    ]


@dataclass(frozen=True)
class ServeConfig(JsonConfig):
    """The always-on scheduler daemon (``python -m repro serve``).

    Unlike :class:`~repro.api.config.SchedConfig` — one pre-declared
    batch, one policy *comparison* — a serve config describes a single
    live service: one placement policy, jobs submitted while the clock
    runs, durable state under ``--state-dir``.  See ``docs/serve.md``.
    """

    KIND: ClassVar[str] = "serve"

    #: Service label (non-empty); becomes the ``serve_<name>`` bench id.
    name: str = "serve"
    #: Seeds the fault plan; the service itself is deterministic.
    seed: int = 0
    #: The shared cluster the daemon schedules onto.
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    #: The single placement policy the live service runs.
    policy: str = "bin-pack"
    #: Optional fault plan perturbing the live cluster.
    faults: FaultsConfig | None = None
    #: Optional autotuning brain re-planning resources online.
    brain: BrainConfig | None = None
    #: Admission backlog bound (pending + queued); submissions beyond it
    #: are shed with a structured ``queue full`` rejection.
    queue_limit: int = 64
    #: Snapshot cadence: persist engine state every N applied ops
    #: (bounds journal-replay length on recovery).
    snapshot_every: int = 8
    #: Virtual seconds one ``tick`` op advances when no ``until`` given.
    tick_seconds: float = 300.0
    #: Event-loop iterations allowed per tick/drain (runaway guard).
    max_events_per_tick: int = 10_000

    def validate(self) -> "ServeConfig":
        self._validate_shared(fault_target="sched")
        POLICIES.require(self.policy)
        if self.queue_limit < 1:
            raise ConfigError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.snapshot_every < 1:
            raise ConfigError(
                f"snapshot_every must be >= 1, got {self.snapshot_every}"
            )
        if not self.tick_seconds > 0:
            raise ConfigError(
                f"tick_seconds must be > 0, got {self.tick_seconds}"
            )
        if self.max_events_per_tick < 1:
            raise ConfigError(
                f"max_events_per_tick must be >= 1, got {self.max_events_per_tick}"
            )
        return self


class QueueFullError(ValueError):
    """Structured backpressure: the admission backlog is at its limit.

    The daemon *sheds* the submission — a one-line structured rejection,
    never silent loss and never unbounded queue growth.  ``detail``
    carries the machine-readable shape for acks and logs.
    """

    def __init__(self, job: str, backlog: int, limit: int) -> None:
        self.detail = {"job": job, "backlog": backlog, "queue_limit": limit}
        super().__init__(
            f"queue full: job {job!r} shed ({backlog} jobs already "
            f"waiting, queue_limit={limit})"
        )


class ServeEngine:
    """One live multi-tenant scheduler run, advanced op by op."""

    def __init__(self, config) -> None:
        self.config = config
        plan = None
        if config.faults is not None:
            plan = FaultPlan.from_config(
                config.faults, seed=config.seed, target="sched"
            )
        self.scheduler = MultiTenantScheduler(
            num_nodes=config.cluster.num_nodes,
            instance=config.cluster.instance,
            gpus_per_node=config.cluster.gpus_per_node,
            policy=config.policy,
            seed=config.seed,
            name=config.name,
            faults=plan,
            brain=config.brain,
        )
        #: The one event loop and all its state (see repro.sched.core).
        self.core = self.scheduler.start()
        #: Highest op id consumed (exactly-once apply watermark).
        self.last_op_id = 0
        self.submitted = 0
        self.rejected = 0
        self.ticks = 0
        #: Incremental trajectory: one ``[now, jobs_done, iterations]``
        #: row per tick/drain — the daemon's continuously emitted
        #: goodput curve (virtual clock, so bit-stable across replays).
        self.series: list[list[float]] = []
        #: Hash chain over every applied op (see :meth:`apply_op`).
        self.witness = GENESIS_WITNESS
        #: name -> record of each job the op being applied could touch.
        self._touched: dict = {}

    @property
    def records(self) -> dict:
        """name -> JobRecord, every job ever accepted."""
        return self.core.records

    @property
    def done(self) -> list:
        return self.core.done

    @property
    def now(self) -> float:
        return self.core.now

    # -- op dispatch ----------------------------------------------------------
    def apply_op(self, op: dict, seq: int | None = None) -> dict:
        """Apply one journaled op; returns its acknowledgement.

        Deterministic in (current state, op) — including rejections,
        which advance the id watermark and the ``rejected`` counter just
        like successes, so a journal replay reproduces every counter.
        User-level problems come back as ``{"ok": False, "error": ...}``
        acks; anything raising past here is a real bug.

        Every applied op (``seq`` is its journal frame's number) also
        advances ``witness``: the sha256-16 chain link over the previous
        witness, ``seq``, the op, its ack, the core scalars, the state
        of every record the op could have touched — running before or
        after any event-loop step, completed, submitted — and the fault
        and brain log entries it appended.  Two engines that applied
        the same ops agree on it at every op, for O(cluster) work per
        op where :meth:`state_digest` costs O(history).
        """
        if not isinstance(op, dict):
            raise ValueError(f"op must be a mapping, got {type(op).__name__}")
        kind = op.get("op")
        op_id = op.get("id")
        if op_id is not None and op_id <= self.last_op_id:
            return {"ok": True, "id": op_id, "duplicate": True}
        core = self.core
        self._touched = {r.spec.name: r for r in core.running}
        logs = [d.log for d in (core.faults, core.brain) if d is not None]
        marks = [len(log) for log in logs]
        try:
            if kind == "submit":
                result = self._submit(op.get("job"))
            elif kind == "tick":
                result = self._tick(op.get("until"))
            elif kind == "drain":
                result = self._drain()
            elif kind == "snapshot":
                # The runtime persists the snapshot; the engine only
                # consumes the op id so replays stay aligned.
                result = {"snapshot": True}
            elif kind == "stop":
                result = {"stopped": True}
            else:
                raise ValueError(
                    f"unknown op {kind!r}; accepted: submit, tick, drain, "
                    "snapshot, status, payload, stop"
                )
            ack = {"ok": True, "id": op_id, **result}
        except (ValueError, KeyError) as exc:
            self.rejected += 1
            ack = {"ok": False, "id": op_id, "error": str(exc)}
        if op_id is not None:
            self.last_op_id = op_id
        self.witness = digest16(
            [
                self.witness,
                seq,
                op,
                ack,
                [
                    core.now, core.events, core.occupied_node_seconds,
                    self.last_op_id, self.submitted, self.rejected, self.ticks,
                    len(core.pending), len(core.queued), len(core.running),
                    len(core.done),
                ],
                {name: _record_state(r) for name, r in self._touched.items()},
                [log.tail(mark) for log, mark in zip(logs, marks)],
            ]
        )
        return ack

    # -- submissions ----------------------------------------------------------
    def _submit(self, job: Any) -> dict:
        if not isinstance(job, dict):
            raise ValueError(
                f"submit needs a 'job' mapping, got {type(job).__name__}"
            )
        spec = load(JobSpec, job, "job")
        core = self.core
        # Name and shape problems outrank backpressure in the ack.
        core.check(spec)
        backlog = len(core.pending) + len(core.queued)
        if backlog >= self.config.queue_limit:
            raise QueueFullError(spec.name, backlog, self.config.queue_limit)
        if spec.arrival_seconds < core.now - _EPS:
            # The virtual clock never rewinds: late submissions arrive now.
            spec = dataclasses.replace(spec, arrival_seconds=core.now)
        self._touched[spec.name] = core.submit(spec)
        self.submitted += 1
        return {
            "job": spec.name,
            "arrival": spec.arrival_seconds,
            "backlog": backlog + 1,
        }

    # -- bounded slices of the event loop -------------------------------------
    def _tick(self, until: Any = None) -> dict:
        """Advance the virtual clock to ``until`` (default: one tick_seconds)."""
        core = self.core
        if until is None:
            until = core.now + self.config.tick_seconds
        if not isinstance(until, (int, float)) or isinstance(until, bool):
            raise ValueError(f"tick 'until' must be a number, got {until!r}")
        try:
            until = float(until)
        except OverflowError:  # an integer literal beyond float range
            until = math.inf
        if not math.isfinite(until):
            # The op is journaled before it applies: a NaN bound is never
            # reached (every replay would hit the event cap again) and an
            # infinite one would move the clock to inf.
            raise ValueError(f"tick 'until' must be finite, got {until}")
        if until < core.now - 1e-9:
            raise ValueError(
                f"tick until={until} is behind the virtual clock ({core.now})"
            )
        t0 = core.now
        completed: list[str] = []
        for _ in range(self.config.max_events_per_tick):
            completed.extend(core.step(until))
            self._touched.update((r.spec.name, r) for r in core.running)
            if core.now >= until - 1e-9:
                break
        else:  # pragma: no cover - runaway-loop backstop
            raise RuntimeError(
                f"tick exceeded max_events_per_tick={self.config.max_events_per_tick}"
            )
        self._touched.update((name, core.records[name]) for name in completed)
        self.ticks += 1
        self._mark_series()
        return {
            "t0": t0,
            "now": core.now,
            "completed": completed,
            "running": len(core.running),
            "queued": len(core.queued) + len(core.pending),
            "done": len(core.done),
        }

    def _drain(self) -> dict:
        """Run the backlog to completion — the batch path's terminal state."""
        core = self.core
        t0 = core.now
        # A drain can run every live job, so all of them count as touched.
        self._touched.update(
            (r.spec.name, r) for r in (*core.pending, *core.queued, *core.running)
        )
        cap = max(10_000, 16 * max(1, len(core.records)), self.config.max_events_per_tick)
        completed = core.drain(cap)
        if completed is None:  # pragma: no cover - runaway-loop backstop
            raise RuntimeError(f"drain exceeded its event cap ({cap})")
        self.ticks += 1
        self._mark_series()
        return {
            "t0": t0,
            "now": core.now,
            "completed": completed,
            "done": len(core.done),
            "drained": True,
        }

    def _mark_series(self) -> None:
        core = self.core
        self.series.append(
            [
                round(core.now, 6),
                len(core.done),
                round(sum(r.progress for r in core.records.values()), 6),
            ]
        )

    # -- reporting ------------------------------------------------------------
    def report(self) -> SchedReport:
        """The live :class:`SchedReport` at the current virtual time."""
        scheduler, core = self.scheduler, self.core
        if not core.records:
            # A daemon drained before any submission still reports.
            return SchedReport(
                name=scheduler.name,
                policy=scheduler.policy_name,
                instance=scheduler.instance,
                num_nodes=scheduler.num_nodes,
                gpus_per_node=scheduler.gpus_per_node,
                seed=scheduler.seed,
                makespan_s=core.now,
                events=core.events,
            )
        return scheduler.report(core)

    def payload(self, *, bench: str | None = None, replay: bool = True) -> dict:
        """The BENCH payload of the service so far (+ serve trajectory).

        ``replay=True`` trains completed payload jobs' allocation
        histories through the real ElasticTrainer (cached per record, so
        repeated calls never retrain); interim status probes pass
        ``replay=False`` to stay cheap.
        """
        if replay:
            self.scheduler.replay_payloads(self.core)
        payload = payload_for_reports(
            [self.report()], bench=bench or f"serve_{self.config.name}"
        )
        payload["meta"]["serve"] = self.stats()
        return payload

    def stats(self) -> dict:
        """Virtual-clock service counters (all journal-replay stable)."""
        core = self.core
        return {
            "now": core.now,
            "events": core.events,
            "ticks": self.ticks,
            "submitted": self.submitted,
            "rejected": self.rejected,
            "completed": len(core.done),
            "running": len(core.running),
            "backlog": len(core.pending) + len(core.queued),
            "last_op_id": self.last_op_id,
            "digest": self.state_digest(),
            "series": [list(row) for row in self.series],
        }

    def state_digest(self) -> str:
        """sha256-16 over the canonical JSON of the full mutable state.

        The whole-state determinism witness: two engines that applied
        the same op sequence — live, journal-replayed, or
        snapshot-plus-tail — must agree on this digest.  It costs
        O(every job ever accepted), so the per-op check is ``witness``;
        this one is taken per snapshot, verified on restore, and
        reported by ``status``, payloads and the ``recovered`` note.
        """
        core = self.core
        doc = {
            "now": core.now,
            "events": core.events,
            "occupied": core.occupied_node_seconds,
            "last_op_id": self.last_op_id,
            "submitted": self.submitted,
            "rejected": self.rejected,
            "ticks": self.ticks,
            "pending": [r.spec.name for r in core.pending],
            "queued": sorted(r.spec.name for r in core.queued),
            "running": [r.spec.name for r in core.running],
            "done": [r.spec.name for r in core.done],
            "jobs": {
                name: _record_state(record)
                for name, record in core.records.items()
            },
            "faults": core.faults.log.digest() if core.faults is not None else None,
            "brain": core.brain.log.digest() if core.brain is not None else None,
        }
        return digest16(doc)

    # -- snapshot state extraction / restore ----------------------------------
    def snapshot_state(self) -> dict:
        """The run plus the serve counters, as one object graph.

        The run pickles whole — records, cluster state, fault driver
        with its RNG and health ledger, brain decision state — so
        cross-references survive exactly.  Only the scheduler (policy
        closure, memo caches) is left out and rebuilt from config on
        restore: the caches are pure memoization, so an empty cache
        changes wall-clock only, never a result.
        """
        return {
            "core": self.core,
            "last_op_id": self.last_op_id,
            "submitted": self.submitted,
            "rejected": self.rejected,
            "ticks": self.ticks,
            "series": self.series,
            "witness": self.witness,
            "digest": self.state_digest(),
        }

    @classmethod
    def from_snapshot_state(cls, config, state: dict) -> "ServeEngine":
        """Rebuild a live engine from :meth:`snapshot_state` output."""
        engine = cls(config)
        engine.core = state["core"]
        engine.core.scheduler = engine.scheduler
        engine.last_op_id = state["last_op_id"]
        engine.submitted = state["submitted"]
        engine.rejected = state["rejected"]
        engine.ticks = state["ticks"]
        engine.series = state["series"]
        engine.witness = state["witness"]
        restored = engine.state_digest()
        if restored != state["digest"]:
            raise RuntimeError(
                "snapshot state digest mismatch after restore: "
                f"{restored} != {state['digest']}"
            )
        return engine


__all__ = ["ServeConfig", "ServeEngine", "QueueFullError"]
