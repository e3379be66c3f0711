"""Performance model: iteration time, throughput, scaling efficiency,
and the DAWNBench case study.

The composition follows the paper's Fig. 1 semantics: per-iteration time
splits into I/O, FF&BP, compression, communication, and LARS, where each
component's *visible* (non-overlapped) share is what adds up to the
iteration time.  Calibration constants live in
:mod:`repro.perf.calibration`, every one annotated with the paper
measurement it is pinned to.
"""

from repro.perf.calibration import CALIBRATION, Calibration
from repro.perf.elastic_cost import ElasticCostReport, account
from repro.perf.dawnbench import DawnbenchResult, DawnbenchSimulator, PhaseResult
from repro.perf.iteration_model import IterationModel, SchemeKind, io_visible_time
from repro.perf.throughput import ThroughputRow, table3_rows
from repro.perf.timeline import (
    TimelineResult,
    derive_overlap_fraction,
    simulate_backward_overlap,
)

__all__ = [
    "TimelineResult",
    "simulate_backward_overlap",
    "derive_overlap_fraction",
    "Calibration",
    "CALIBRATION",
    "ElasticCostReport",
    "account",
    "IterationModel",
    "SchemeKind",
    "io_visible_time",
    "ThroughputRow",
    "table3_rows",
    "DawnbenchSimulator",
    "DawnbenchResult",
    "PhaseResult",
]
