"""The scheduler event loop: one incremental run-state core.

:class:`SchedRun` is the whole mutable state of one simulation — the
:class:`~repro.sched.policies.ClusterState`, every
:class:`~repro.sched.job.JobRecord` and which of pending / queued /
running / done it is in, the virtual clock, and the per-run fault and
brain drivers — plus the only implementation of the loop that advances
it: :meth:`SchedRun.submit` accepts a job, :meth:`SchedRun.step` runs
one event-loop iteration (never past ``until``), :meth:`SchedRun.drain`
steps until nothing can progress.

Both front ends drive this one object.  Batch
:meth:`MultiTenantScheduler.run <repro.sched.scheduler
.MultiTenantScheduler.run>` is *submit all, drain, report*; the
``repro serve`` engine submits while the clock runs and steps in
bounded ticks.  ``until`` is the only difference between the two, so a
drained service fed a batch's jobs is bit-identical to the batch run.

The run is also what the drivers see: fault plugins and the brain read
``scheduler`` / ``now`` / ``state`` / ``queued`` / ``running`` (and
``faults``) straight off it.  It pickles whole for serve snapshots —
minus the scheduler, whose policy closure and memo caches are rebuilt
from config and re-attached on restore, and minus the run's own
memoisation (prices, refused admissions, preemption budget), which a
restored run simply recomputes.
"""

from __future__ import annotations

import bisect
import math

from repro.sched.job import DONE, JobRecord, JobSpec
from repro.sched.policies import ClusterState

_EPS = 1e-12


def admit_key(record: JobRecord) -> tuple:
    """Admission order: highest priority, then earliest arrival, then name."""
    return (-record.spec.priority, record.spec.arrival_seconds, record.spec.name)


def _pending_key(record: JobRecord) -> tuple:
    """Arrival order of accepted-but-not-yet-arrived jobs."""
    return (record.spec.arrival_seconds, -record.spec.priority, record.spec.name)


class AdmitQueue:
    """The admission backlog, grouped by placement signature.

    Whether a job fits depends only on its *signature* — (GPUs per node,
    ``min_nodes``) — never on which job carries it.  Keeping one
    admit-ordered list per signature lets the admit scan visit at most
    one head job per signature (plus one pop per placement) instead of
    walking every queued job at every event; on a trace-scale backlog of
    thousands of queued jobs with a handful of distinct shapes, that is
    the difference between an O(queue) and an O(shapes) scan.
    """

    def __init__(self) -> None:
        #: signature -> records, each list sorted by :func:`admit_key`.
        self.by_sig: dict[tuple[int, int], list[JobRecord]] = {}
        self._count = 0

    def add(self, record: JobRecord, gpus: int) -> None:
        sig = (gpus, record.spec.min_nodes)
        bisect.insort(self.by_sig.setdefault(sig, []), record, key=admit_key)
        self._count += 1

    def pop_head(self, sig: tuple[int, int]) -> JobRecord:
        records = self.by_sig[sig]
        record = records.pop(0)
        if not records:
            del self.by_sig[sig]
        self._count -= 1
        return record

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        for records in self.by_sig.values():
            yield from records


class SchedRun:
    """All mutable state of one scheduler simulation, and its event loop.

    Built by :meth:`MultiTenantScheduler.start <repro.sched.scheduler
    .MultiTenantScheduler.start>`, which supplies fresh per-run drivers:
    ``faults`` is a :class:`~repro.faults.sched_driver.SchedFaultDriver`
    and ``brain`` a :class:`~repro.brain.driver.BrainDriver`, each
    ``None`` when the run has none (every path then stays bit-identical
    to a build without that subsystem).
    """

    def __init__(self, scheduler, faults=None, brain=None) -> None:
        self.scheduler = scheduler
        self.faults = faults
        self.brain = brain
        self.state = ClusterState(scheduler.num_nodes, scheduler.gpus_per_node)
        if faults is not None:
            # Publish the health ledger for the fault-aware policy;
            # fault-free runs leave state.health as None.
            self.state.health = faults.health
        #: name -> JobRecord, every job ever accepted.
        self.records: dict[str, JobRecord] = {}
        #: Accepted but not yet arrived, sorted by :func:`_pending_key`.
        self.pending: list[JobRecord] = []
        self.queued = AdmitQueue()
        self.running: list[JobRecord] = []
        self.done: list[JobRecord] = []
        self.now = 0.0
        #: Event-loop iterations so far (the terminal one included).
        self.events = 0
        self.occupied_node_seconds = 0.0
        self._reset_derived()

    #: Memoisation the loop keeps between events (see :meth:`step` and
    #: :meth:`MultiTenantScheduler.schedule`).  Never pickled: a restored
    #: run re-prices every running job and retries every admission once.
    _DERIVED = ("prices", "priced_inputs", "refused", "spare")

    def _reset_derived(self) -> None:
        #: running job name -> (busy rate, solo rate, USD/hour), each
        #: valid until ``state.touched`` names the job or the fault
        #: driver's pricing inputs differ from ``priced_inputs``.
        self.prices: dict[str, tuple[float, float, float]] = {}
        self.priced_inputs: tuple = ()
        #: placement signature -> (``state.version``, head priority) of
        #: its last failed admission attempt.
        self.refused: dict[tuple[int, int], tuple[int, int]] = {}
        #: (``state.version``, {priority: nodes running jobs of that
        #: priority hold above their ``min_nodes``}).
        self.spare: tuple[int, dict[int, int]] = (-1, {})

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["scheduler"]
        for name in self._DERIVED:
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._reset_derived()

    # -- submissions ----------------------------------------------------------
    def check(self, spec: JobSpec) -> None:
        """Raise ``ValueError`` if this cluster can never run ``spec``."""
        scheduler = self.scheduler
        if spec.name in self.records:
            raise ValueError(f"job name {spec.name!r} was already submitted")
        spec.check_fits(scheduler.num_nodes, scheduler.gpus_per_node)

    def submit(self, spec: JobSpec) -> JobRecord:
        """Accept a job; it joins the admission queue once it arrives."""
        self.check(spec)
        record = JobRecord(spec=spec)
        self.records[spec.name] = record
        bisect.insort(self.pending, record, key=_pending_key)
        return record

    # -- the event loop -------------------------------------------------------
    def step(self, until: float | None = None) -> list[str] | None:
        """One event-loop iteration, never past ``until``.

        Arrivals, fault and brain boundaries, admission + autoscale,
        then piecewise-constant rate accrual up to the next event and
        the completion sweep.  Returns the jobs completed this
        iteration; returns ``None`` (only possible with ``until=None``)
        when nothing can ever progress again — no job is running, none
        will arrive, and no repair is coming.

        An event costs what it touched, not what is running: a running
        job keeps its price — ``(busy rate, solo rate, USD/hour)`` —
        until a :class:`~repro.sched.policies.ClusterState` transition
        names it in ``state.touched`` (its node count or a co-tenant
        set changed) or the fault driver's ``pricing_inputs()`` differ
        from the previous event's (then every job is re-priced).  What
        stays per event and per running job is the float work itself —
        the finish-time minimum and the four accruals — because the
        horizon feeds every later event time and a deferred accrual
        ``x + r*(a + b)`` is not the ``x + r*a + r*b`` a digest pins.
        """
        scheduler = self.scheduler
        state = self.state
        faults = self.faults
        brain = self.brain
        pending = self.pending
        running = self.running
        now = self.now
        self.events += 1
        while pending and pending[0].spec.arrival_seconds <= now + _EPS:
            record = pending.pop(0)
            self.queued.add(record, scheduler.job_gpus(record.spec))
        if faults is not None:
            state.now = now
            faults.apply_due(self)
        if brain is not None:
            state.now = now
            brain.apply_due(self)
        scheduler.schedule(self)
        if faults is not None:
            faults.note_replacements(self)
        next_arrival = pending[0].spec.arrival_seconds if pending else None
        if not running:
            boundary = faults.next_boundary(now) if faults is not None else None
            waits = [t for t in (next_arrival, boundary) if t is not None]
            if not waits:
                if until is None:
                    return None
                self.now = until  # a service idles; virtual time still passes
            else:
                self.now = min(waits) if until is None else min(min(waits), until)
            return []

        # Piecewise-constant rates until the next event.  A price stands
        # until its job is touched by a ClusterState transition or the
        # fault driver's pricing inputs change; both are consumed here
        # and nowhere else (the idle return above leaves them pending).
        prices = self.prices
        touched = state.touched
        inputs = faults.pricing_inputs() if faults is not None else ()
        if inputs != self.priced_inputs:
            self.priced_inputs = inputs
            prices.clear()
        else:
            for name in touched:
                prices.pop(name, None)
        touched.clear()
        horizon = math.inf
        for record in running:
            spec = record.spec
            price = prices.get(spec.name)
            if price is None:
                price = prices[spec.name] = self._price(record)
            remaining = spec.iterations - record.progress
            finish = now + (remaining if remaining > 0.0 else 0.0) / price[0]
            if finish < horizon:
                horizon = finish
        if next_arrival is not None and next_arrival < horizon:
            horizon = next_arrival
        if faults is not None:
            boundary = faults.next_boundary(now)
            if boundary is not None and boundary < horizon:
                horizon = boundary
        if brain is not None:
            # Decision ticks only matter while jobs are running, so the
            # brain boundary is consulted on the busy path only (the
            # idle branch would otherwise spin on ticks that can never
            # decide anything).
            boundary = brain.next_boundary(now)
            if boundary is not None and boundary < horizon:
                horizon = boundary
        if until is not None and until < horizon:
            horizon = until
        dt = max(0.0, horizon - now)

        # Accrual stays eager — every running job, every event, these
        # expressions in this order: x + r*(a + b) != x + r*a + r*b in
        # floats, and the horizon above feeds every later event time.
        self.occupied_node_seconds += state.busy_nodes() * dt
        self.now = now = horizon
        finished: list[JobRecord] = []
        for record in running:
            rate, solo_rate, hourly = prices[record.spec.name]
            iterations = record.spec.iterations
            progress = record.progress + rate * dt
            if progress >= iterations:
                # >=, not >: on a tie the job must hold the int itself
                # (payload rows print 2695, not 2695.0).
                progress = iterations
            record.progress = progress
            record.solo_equivalent += solo_rate * dt
            record.running_seconds += dt
            record.cost_usd += hourly * dt / 3600.0
            if iterations - progress <= 1e-9:
                finished.append(record)

        if not finished:
            return []
        for record in finished:
            name = record.spec.name
            state.release(name)
            del prices[name]
            record.status = DONE
            record.completion = now
        running[:] = [record for record in running if record.status != DONE]
        self.done.extend(finished)
        return [record.spec.name for record in finished]

    def _price(self, record: JobRecord) -> tuple[float, float, float]:
        """``(busy rate, solo rate, USD/hour)`` of a running job right now."""
        scheduler, faults = self.scheduler, self.faults
        spec, nodes = record.spec, record.nodes
        count = len(nodes)
        contention = self.state.contention_for(nodes)
        if faults is not None:
            nic_scale = faults.active_nic_scale()
            stretch = faults.stretch_for(nodes)
            jitter = faults.jitter_for(nodes)
        else:
            nic_scale = stretch = jitter = 1.0
        busy = scheduler.iteration_seconds(
            spec,
            nodes=count,
            contention=contention,
            nic_scale=nic_scale,
            stretch=stretch,
            jitter=jitter,
        )
        # The slowdown baseline stays fault-free: the solo rate is
        # the ideal this job is judged against.
        solo = (
            busy
            if contention <= 1 and nic_scale >= 1 and stretch <= 1 and jitter <= 1
            else scheduler.iteration_seconds(spec, nodes=count, contention=1.0)
        )
        return 1.0 / busy, 1.0 / solo, scheduler.hourly_rate(spec, count)

    def drain(self, max_events: int) -> list[str] | None:
        """Step until no work is left or none of it can ever progress.

        Returns the jobs completed, or ``None`` if ``max_events`` steps
        did not settle the backlog (the runaway-loop backstop: batch
        reports what it has, the service raises).
        """
        completed: list[str] = []
        for _ in range(max_events):
            if not (self.pending or len(self.queued) or self.running):
                return completed
            out = self.step()
            if out is None:
                return completed  # unplaceable remainder
            completed.extend(out)
        return None


__all__ = ["AdmitQueue", "SchedRun", "admit_key"]
