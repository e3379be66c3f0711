"""What the benchmark measures: metric names, workload sizes, statistics.

``BENCHMARK.json`` at the repo root is the one list of metric names,
units, directions and bounds; nothing here repeats it.  This module adds
what that file has no key for — the generating parameters of each
workload — and the few statistics every workload shares.  It imports
neither numpy nor ``repro``, so the orchestrating process stays light.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import statistics
from statistics import median  # noqa: F401  (re-exported: every module here takes medians)

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
FIXTURES = HERE / "fixtures"
#: Scratch space for traces and serve state dirs (inside the checkout,
#: gitignored, removed after every run).
WORK_ROOT = HERE / ".work"

DEFAULT_SEED = 2021
WORKLOADS = ("train-compute", "train-comm", "sched-replay", "serve-soak")

#: One thread per BLAS call: the load generator is a single process on a
#: shared 2-core host, and an unpinned BLAS doubles the run-to-run noise.
BLAS_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Generating parameters.  ``full`` is what BENCHMARK.json's numbers are
#: taken on; ``smoke`` keeps every code path but finishes in seconds.
SIZES = {
    "full": {
        "train-compute": {
            "samples": 1024, "nodes": 4, "gpus": 2, "local_batch": 16,
            "density": 0.05, "check_steps": 900, "rate_steps": 50,
        },
        "train-comm": {
            "samples": 2048, "nodes": 2, "gpus": 8, "local_batch": 2,
            "density": 0.01, "input_dim": 64, "hidden": (512, 512),
            "classes": 16, "separation": 0.3, "lr": 0.002,
            "check_steps": 80, "rate_steps": 5,
        },
        "sched-replay": {
            "jobs": 10_000, "nodes": 16, "gpus": 8, "warm_jobs": 200,
            # Four days per run whatever --seconds says: with fewer, the
            # day-to-day variation alone spreads wider than a third of
            # the bound.
            "min_replays": 4,
        },
        "serve-soak": {
            "jobs": 1_000, "warm_jobs": 20, "min_soaks": 2, "snapshot_every": 128,
        },
    },
    "smoke": {
        "train-compute": {
            "samples": 256, "nodes": 4, "gpus": 2, "local_batch": 16,
            "density": 0.05, "check_steps": 24, "rate_steps": 4,
        },
        "train-comm": {
            "samples": 256, "nodes": 2, "gpus": 8, "local_batch": 2,
            "density": 0.01, "input_dim": 64, "hidden": (64, 64),
            "classes": 16, "separation": 0.3, "lr": 0.002,
            "check_steps": 16, "rate_steps": 4,
        },
        "sched-replay": {
            "jobs": 300, "nodes": 16, "gpus": 8, "warm_jobs": 50,
            "min_replays": 2,
        },
        "serve-soak": {
            "jobs": 60, "warm_jobs": 10, "min_soaks": 2, "snapshot_every": 16,
        },
    },
}


def load_benchmark() -> dict:
    """The parsed ``BENCHMARK.json`` (metric names, units, bounds)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_reference(path: str | os.PathLike | None = None) -> dict:
    """Recorded reference losses/digests: ``scale -> workload -> seed``."""
    return json.loads(pathlib.Path(path or HERE / "reference.json").read_text())


def pinned_env() -> dict:
    """The child environment: BLAS pinned to one thread."""
    return {**os.environ, **{name: "1" for name in BLAS_PIN}}


def blas_pinned() -> bool:
    return all(os.environ.get(name) == "1" for name in BLAS_PIN)


def visible_cpus() -> int:
    return len(os.sched_getaffinity(0))


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile (no interpolation) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def spread(values) -> float:
    """Quartile distance as a share of the median — the driver's rule."""
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)
