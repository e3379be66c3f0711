"""Elastic preemption-aware training (spot/preemptible cloud clusters).

The paper measures steady-state throughput on a fixed cluster; this
subsystem extends the reproduction to the fleet dynamics of real public
clouds, where spot instances are revoked mid-run and elastic schedulers
backfill capacity:

* :mod:`repro.elastic.events` — Poisson and trace-driven revocation
  schedules, the two-minute-warning model, per-cloud spot profiles;
* :mod:`repro.elastic.membership` — the live worker set, membership
  epochs, topology re-derivation, and error-feedback residual folding
  across world-size changes;
* :mod:`repro.elastic.elastic_trainer` — checkpoint-rollback recovery,
  scheme rebuild (dense / gTop-k / HiTopKComm) on rescale, and straggler
  composition via :mod:`repro.cluster.variability`.

Cost/goodput accounting for elastic runs lives in
:mod:`repro.perf.elastic_cost`.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.elastic.elastic_trainer": ["ElasticRunReport", "ElasticTrainer"],
        "repro.elastic.events": [
            "JOIN",
            "REVOKE",
            "SPOT_PROFILES",
            "ChurnEvent",
            "PoissonChurn",
            "SpotProfile",
            "TraceSchedule",
        ],
        "repro.elastic.membership": ["MembershipView", "fold_residuals"],
    },
)
