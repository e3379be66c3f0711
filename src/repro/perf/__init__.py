"""Performance model: iteration time, throughput, scaling efficiency,
and the DAWNBench case study.

The composition follows the paper's Fig. 1 semantics: per-iteration time
splits into I/O, FF&BP, compression, communication, and LARS, where each
component's *visible* (non-overlapped) share is what adds up to the
iteration time.  Calibration constants live in
:mod:`repro.perf.calibration`, every one annotated with the paper
measurement it is pinned to.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.perf.calibration": ["CALIBRATION", "Calibration"],
        "repro.perf.elastic_cost": ["ElasticCostReport", "account"],
        "repro.perf.dawnbench": ["DawnbenchResult", "DawnbenchSimulator", "PhaseResult"],
        "repro.perf.iteration_model": ["IterationModel", "io_visible_time"],
        "repro.perf.throughput": ["ThroughputRow", "table3_rows"],
        "repro.perf.timeline": ["TimelineResult", "derive_overlap_fraction", "simulate_backward_overlap"],
    },
)
