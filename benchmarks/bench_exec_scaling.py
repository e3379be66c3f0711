"""Exec scaling: wall-clock of the multicore engine vs the serial path.

Two measurements, one payload:

* **sweep scaling** — the headline: a ≥8-config CNN sweep (the Fig. 10
  scheme families x 2 seeds) run serially and through
  :class:`~repro.exec.ParallelSweeper` on the ``process`` backend at
  ``jobs`` in {2, 4}.  Whole independent runs parallelise embarrassingly,
  so on a ≥4-core host ``jobs=4`` must clear the sweep-speedup floor
  (1.5x; the CI ``exec-smoke`` job gates on it via
  ``check_regression.py exec_scaling``).
* **trainer scaling** — steps/sec of one ``W=8`` CNN trainer with the
  per-worker forward/backward fanned across the pool, reported for the
  record (per-step IPC makes this the harder win; the sweep ratio is
  the gate).

Parity is asserted unconditionally on every host: the parallel sweep's
summaries must equal the serial loop's bit for bit — a broken pool can
never hide behind a fast one.  The speedup assert arms only where the
hardware can physically deliver it (``cpu_count() >= 4``); single-core
hosts record the ratio and skip, keeping the committed baseline honest
about the machine it was measured on.

Emits ``results/BENCH_exec_scaling_run.json``; the *committed* baseline
lives at ``results/BENCH_exec_scaling.json`` and is never written by a
bench run (updating it is a deliberate ``cp`` after a representative
run).
"""

import time

import pytest
from check_regression import assert_gates

from repro.api.config import RunConfig
from repro.api.facade import run
from repro.api.registry import build_cluster, build_scheme, build_workload
from repro.exec.backend import ProcessBackend, cpu_count
from repro.exec.sweeper import ParallelSweeper
from repro.perf.hotpath import measure_steps_per_sec, worker_batches
from repro.train.trainer import DistributedTrainer
from repro.utils.seeding import new_rng
from repro.utils.tables import format_table

#: Pool widths measured against the serial loop.
JOBS = (2, 4)
#: Fig. 10 scheme families x 2 seeds -> the >= 8-config sweep.
SWEEP_SCHEMES = ("dense", "topk", "gtopk", "mstopk")
SWEEP_SEEDS = (0, 1)
WORLD = 8
TRAINER_STEPS = 8


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


def _measure_sweep() -> dict:
    configs = _sweep_configs()
    start = time.perf_counter()
    serial_reports = [run(config) for config in configs]
    serial_seconds = time.perf_counter() - start

    result = {
        "configs": len(configs),
        "serial_seconds": serial_seconds,
        "parallel_seconds": {},
        "speedups": {},
        "parity_ok": True,
    }
    serial_payloads = [report.bench_payload() for report in serial_reports]
    for jobs in JOBS:
        sweeper = ParallelSweeper("process", jobs=jobs)
        start = time.perf_counter()
        reports = sweeper.run_configs(configs)
        seconds = time.perf_counter() - start
        result["parallel_seconds"][jobs] = seconds
        result["speedups"][jobs] = serial_seconds / seconds if seconds else 0.0
        if [r.bench_payload() for r in reports] != serial_payloads:
            result["parity_ok"] = False
    return result


def _measure_trainer() -> dict:
    workload = build_workload("cnn", num_samples=1024, rng=new_rng(7))
    network = build_cluster("tencent", WORLD // 2, gpus_per_node=2)
    batches = worker_batches(workload.x, workload.y, WORLD, 16)

    def steps_per_sec(exec_backend, label):
        trainer = DistributedTrainer(
            workload.model,
            build_scheme("mstopk", network, density=0.05),
            seed=7,
            exec_backend=exec_backend,
        )
        try:
            return measure_steps_per_sec(
                trainer, batches, steps=TRAINER_STEPS, warmup=2, label=label
            ).steps_per_sec
        finally:
            trainer.close()

    result = {"serial": steps_per_sec(None, "serial"), "process": {}}
    for jobs in JOBS:
        with ProcessBackend(jobs=jobs) as pool:
            result["process"][jobs] = steps_per_sec(pool, f"process-{jobs}")
    return result


@pytest.fixture(scope="module")
def scaling(save_result):
    sweep = _measure_sweep()
    trainer = _measure_trainer()
    cores = cpu_count()

    columns = ["mode", "jobs", "sweep s", "sweep speedup", "trainer steps/s"]
    rows = [
        [
            "serial",
            1,
            round(sweep["serial_seconds"], 3),
            1.0,
            round(trainer["serial"], 2),
        ]
    ]
    for jobs in JOBS:
        rows.append(
            [
                "process",
                jobs,
                round(sweep["parallel_seconds"][jobs], 3),
                round(sweep["speedups"][jobs], 3),
                round(trainer["process"][jobs], 2),
            ]
        )
    text = format_table(
        columns,
        rows,
        title=(
            f"Exec scaling: {sweep['configs']}-config CNN sweep + W={WORLD} "
            f"trainer, {cores} usable core(s)"
        ),
    )
    payload = save_result(
        "exec_scaling_run",
        text,
        columns=columns,
        rows=rows,
        meta={
            "cpu_count": cores,
            "sweep_configs": sweep["configs"],
            "serial_sweep_seconds": round(sweep["serial_seconds"], 3),
            "parity_ok": sweep["parity_ok"],
            # Headline ratios the CI exec gate tracks across commits.
            **{
                f"sweep_speedup_jobs{jobs}": round(sweep["speedups"][jobs], 3)
                for jobs in JOBS
            },
            **{
                f"trainer_steps_per_sec_jobs{jobs}": round(
                    trainer["process"][jobs], 2
                )
                for jobs in JOBS
            },
            "trainer_steps_per_sec_serial": round(trainer["serial"], 2),
        },
    )
    return {"trainer": trainer, "payload": payload}


def test_bench_sweep_parity(benchmark, scaling):
    """Pool width never changes results — asserted on every host."""

    def check():
        assert_gates("exec_scaling", scaling["payload"], "parallel sweep parity")
        return True

    assert benchmark(check)


def test_bench_sweep_speedup(benchmark, scaling):
    """jobs=4 clears the wall-clock floor wherever 4 cores exist (the
    row reads ``cpu_count`` and does not apply below that)."""

    def check():
        assert_gates("exec_scaling", scaling["payload"], "jobs=4 sweep speedup floor")
        return True

    assert benchmark(check)


def test_bench_trainer_backend_runs(benchmark, scaling):
    """The per-step engine produces sane throughput at every width."""

    def check():
        assert scaling["trainer"]["serial"] > 0
        for jobs in JOBS:
            assert scaling["trainer"]["process"][jobs] > 0
        return True

    assert benchmark(check)
