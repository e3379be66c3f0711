"""Exec scaling: a parallel config sweep vs the serial loop.

A >= 8-config CNN sweep (the Fig. 10 scheme families x 2 seeds) runs
serially and through :class:`~repro.exec.ParallelSweeper` on the
``process`` backend at ``jobs`` in {2, 4}.  Whole independent runs
parallelise embarrassingly, so:

* **parity** is asserted on every host: the parallel sweep's payloads
  equal the serial loop's bit for bit — a broken pool can never hide
  behind a fast one;
* the **jobs=4 speedup floor** (1.5x) is asserted only where the
  hardware can physically deliver it (``cpu_count() >= 4``) and skipped
  below that.  ``benchmarks/e2e`` deliberately reports no multicore
  number, so this floor is the repo's only one.

Run with ``python -m pytest benchmarks/bench_exec_scaling.py -q``; it
writes nothing.
"""

import time

import pytest

from repro.api.config import RunConfig
from repro.api.facade import run
from repro.exec.backend import cpu_count
from repro.exec.sweeper import ParallelSweeper

#: Pool widths measured against the serial loop.
JOBS = (2, 4)
#: Fig. 10 scheme families x 2 seeds -> the >= 8-config sweep.
SWEEP_SCHEMES = ("dense", "topk", "gtopk", "mstopk")
SWEEP_SEEDS = (0, 1)
WORLD = 8
#: The jobs=4 floor, and the usable cores it needs to apply.
MIN_SPEEDUP_JOBS4 = 1.5
FLOOR_CORES = 4


def _sweep_configs() -> list[RunConfig]:
    return [
        RunConfig.from_dict(
            {
                "name": f"scale-{scheme}-{seed}",
                "seed": seed,
                "cluster": {"instance": "tencent", "num_nodes": WORLD // 2,
                            "gpus_per_node": 2},
                "comm": {"scheme": scheme, "density": 0.05},
                "train": {"model": "cnn", "epochs": 4, "num_samples": 1024,
                          "local_batch": 8},
            }
        )
        for scheme in SWEEP_SCHEMES
        for seed in SWEEP_SEEDS
    ]


@pytest.fixture(scope="module")
def sweep():
    """Serial and pooled payloads plus each width's speedup."""
    configs = _sweep_configs()
    start = time.perf_counter()
    serial = [run(config).bench_payload() for config in configs]
    serial_seconds = time.perf_counter() - start
    pooled, speedups = {}, {}
    for jobs in JOBS:
        start = time.perf_counter()
        reports = ParallelSweeper("process", jobs=jobs).run_configs(configs)
        speedups[jobs] = serial_seconds / (time.perf_counter() - start)
        pooled[jobs] = [report.bench_payload() for report in reports]
    return {"serial": serial, "pooled": pooled, "speedups": speedups}


def test_bench_sweep_parity(sweep):
    """Pool width never changes results — asserted on every host."""
    for jobs in JOBS:
        assert sweep["pooled"][jobs] == sweep["serial"], f"jobs={jobs}"


@pytest.mark.skipif(
    cpu_count() < FLOOR_CORES,
    reason=f"the jobs=4 floor needs >= {FLOOR_CORES} usable cores",
)
def test_bench_sweep_speedup(sweep):
    """jobs=4 clears the wall-clock floor wherever 4 cores exist."""
    assert sweep["speedups"][4] >= MIN_SPEEDUP_JOBS4, sweep["speedups"]
