"""Experiment harnesses — one module per paper table / figure, and per
extension study.

Each module exposes a ``run(...)`` returning structured rows/series and
a ``main()`` printing the same rows/series the paper reports, so the
benchmark logs are directly comparable with the publication.  The index
is :data:`repro.experiments.runner.EXPERIMENTS`, which runs all sixteen
in this order:

==========================  =============================================
Paper artefact / study       Module
==========================  =============================================
Table 1 (cloud instances)    :mod:`repro.experiments.table1_instances`
Fig. 1 (time breakdown)      :mod:`repro.experiments.fig1_breakdown`
Fig. 6 (top-k operators)     :mod:`repro.experiments.fig6_topk_ops`
Fig. 7 (aggregation time)    :mod:`repro.experiments.fig7_aggregation`
Fig. 8 (HiTopKComm steps)    :mod:`repro.experiments.fig8_hitopk_breakdown`
Fig. 9 (DataCache)           :mod:`repro.experiments.fig9_datacache`
§5.4 (PTO speedup)           :mod:`repro.experiments.pto_speedup`
Fig. 10 (convergence)        :mod:`repro.experiments.fig10_convergence`
Table 2 (validation)         :mod:`repro.experiments.table2_validation`
Table 3 (throughput)         :mod:`repro.experiments.table3_throughput`
Table 4 (resolutions)        :mod:`repro.experiments.table4_resolutions`
Table 5 (DAWNBench)          :mod:`repro.experiments.table5_dawnbench`
Elastic churn                :mod:`repro.experiments.elastic_churn`
Multi-tenant scheduling      :mod:`repro.experiments.multi_tenant`
Fault drills                 :mod:`repro.experiments.fault_drills`
Brain autotune               :mod:`repro.experiments.brain_autotune`
==========================  =============================================
"""

__all__ = [
    "table1_instances",
    "fig1_breakdown",
    "fig6_topk_ops",
    "fig7_aggregation",
    "fig8_hitopk_breakdown",
    "fig9_datacache",
    "pto_speedup",
    "fig10_convergence",
    "table2_validation",
    "table3_throughput",
    "table4_resolutions",
    "table5_dawnbench",
    "elastic_churn",
    "multi_tenant",
    "fault_drills",
    "brain_autotune",
]
