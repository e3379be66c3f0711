"""Multi-tenant cloud scheduling over the virtual cluster.

The paper trains *one* job on a dedicated 25 Gbps cluster; this
subsystem runs *many*.  A queue of :class:`JobSpec` (workload profile,
comm scheme, priority, deadline, spot/on-demand preference, elastic node
window) is admitted onto one shared virtual cluster by
:class:`MultiTenantScheduler`:

* placement is a pluggable ordering policy (:data:`POLICIES` registry:
  ``bin-pack`` / ``spread`` / ``network-aware``; extend with
  :func:`register_policy`);
* co-located jobs split node NIC capacity
  (:meth:`NetworkModel.contended <repro.cluster.network.NetworkModel
  .contended>`), so per-job throughput from the Fig. 1 iteration model
  degrades realistically under contention;
* higher-priority arrivals shrink lower-priority jobs (and idle capacity
  grows running ones) through the same
  :class:`~repro.elastic.membership.MembershipView` epochs elastic
  training uses; every job's allocation history replays through
  :class:`~repro.elastic.ElasticTrainer` via
  :meth:`JobRecord.to_trace_schedule`;
* one event loop drives it all: :class:`SchedRun`
  (``submit`` / ``step(until)`` / ``drain``) holds every piece of run
  state; batch :meth:`MultiTenantScheduler.run` and the ``repro serve``
  daemon are two front ends on it;
* the :class:`SchedReport` carries per-job queue wait / JCT / goodput /
  contention slowdown / dollars and cluster-wide makespan, utilization
  and deadline hit rate, in the ``BENCH_*.json`` schema.

Declarative entry points: ``SchedConfig`` (:mod:`repro.api.config`) and
``python -m repro sched --config examples/configs/multi_tenant.json``.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.sched.core": ["SchedRun"],
        "repro.sched.job": [
            "DONE",
            "PREFERENCES",
            "QUEUED",
            "RUNNING",
            "JobRecord",
            "JobSpec",
            "TrainPayload",
        ],
        "repro.sched.policies": ["POLICIES", "ClusterState", "build_policy", "register_policy"],
        "repro.sched.scheduler": [
            "PAYLOAD_COLUMNS",
            "JobOutcome",
            "MultiTenantScheduler",
            "SchedReport",
            "compare_policies",
            "payload_for_reports",
        ],
    },
)
