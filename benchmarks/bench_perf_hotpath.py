"""Hot-path engine: steps/sec of the vectorized training path vs the
pre-vectorization reference, on the Fig. 10 CNN workload.

The vectorized engine ((W, d) fusion buffer, matrix-native collectives,
batched MSTopK/exact-top-k compression, BLAS feature-major conv kernels)
is A/B-measured against the faithful pre-vectorization path
(``legacy_hotpath`` trainer + ``legacy_conv_kernels``), alternating
single steps so machine drift cancels; each scheme reports the best of
three alternating rounds (shared-host CPU states can inflate both paths
by a constant amount, which deflates the ratio — best-of-rounds recovers
the capability ratio).

Emits ``results/BENCH_perf_hotpath_run.json`` with per-scheme
steps/sec, speedup, and per-phase timings.  The *committed* baseline
lives at ``results/BENCH_perf_hotpath.json`` (same schema) and is never
written by a bench run — the CI ``perf-smoke`` job compares the fresh
``_run`` payload against it via ``check_regression.py perf_hotpath``;
updating the baseline is a deliberate ``cp`` after a representative run.
"""

import pytest
from check_regression import assert_gates

from repro.api.registry import build_cluster, build_scheme, build_workload
from repro.perf.hotpath import compare_hotpaths, worker_batches
from repro.train.trainer import DistributedTrainer
from repro.utils.seeding import new_rng
from repro.utils.tables import format_table

#: Fig. 10 CNN configuration (tencent 4x2, rho=0.05, local batch 16).
SCHEMES = ("dense", "topk", "gtopk", "mstopk")
WORLD = 8
LOCAL_BATCH = 16
DENSITY = 0.05
ROUNDS = 3
STEPS = 16


def _measure_scheme(workload, network, batches, scheme_name):
    """Best (by vectorized steps/sec) of ``ROUNDS`` alternating rounds."""

    def make(legacy_hotpath):
        scheme = build_scheme(scheme_name, network, density=DENSITY)
        return DistributedTrainer(
            workload.model, scheme, seed=7, legacy_hotpath=legacy_hotpath
        )

    best = None
    for _ in range(ROUNDS):
        comparison = compare_hotpaths(make, batches, steps=STEPS, warmup=2)
        if best is None or (
            comparison.vectorized.steps_per_sec > best.vectorized.steps_per_sec
        ):
            best = comparison
    return best


@pytest.fixture(scope="module")
def comparisons(save_result):
    workload = build_workload("cnn", num_samples=1024, rng=new_rng(7))
    network = build_cluster("tencent", WORLD // 2, gpus_per_node=2)
    batches = worker_batches(workload.x, workload.y, WORLD, LOCAL_BATCH)
    results = {
        name: _measure_scheme(workload, network, batches, name) for name in SCHEMES
    }

    columns = [
        "scheme",
        "legacy ms/step",
        "vectorized ms/step",
        "legacy steps/s",
        "vectorized steps/s",
        "speedup",
    ]
    rows = []
    for name, c in results.items():
        rows.append(
            [
                name,
                round(c.legacy.seconds_per_step * 1e3, 3),
                round(c.vectorized.seconds_per_step * 1e3, 3),
                round(c.legacy.steps_per_sec, 2),
                round(c.vectorized.steps_per_sec, 2),
                round(c.speedup, 2),
            ]
        )
    phase_lines = []
    for name, c in results.items():
        shares = ", ".join(
            f"{phase}={seconds * 1e3:.2f}ms"
            for phase, seconds in c.vectorized.phase_seconds.items()
        )
        phase_lines.append(f"{name}: {shares}")
    headline = results["mstopk"]
    text = (
        format_table(
            columns,
            rows,
            title="Hot-path engine: Fig. 10 CNN workload, vectorized vs legacy",
        )
        + "\n\nVectorized per-phase (per step):\n"
        + "\n".join(phase_lines)
    )
    payload = save_result(
        "perf_hotpath_run",
        text,
        columns=columns,
        rows=rows,
        meta={
            "workload": "cnn",
            "world_size": WORLD,
            "local_batch": LOCAL_BATCH,
            "density": DENSITY,
            "steps": STEPS,
            "rounds": ROUNDS,
            # Headline numbers the CI perf gate tracks across commits.
            "steps_per_sec": round(headline.vectorized.steps_per_sec, 2),
            "legacy_steps_per_sec": round(headline.legacy.steps_per_sec, 2),
            "speedup_vs_legacy": round(headline.speedup, 3),
            # Per-scheme ratios so the gate catches a regression in any
            # aggregation path, not just the headline scheme.
            **{
                f"speedup_{name}": round(c.speedup, 3)
                for name, c in results.items()
            },
        },
    )
    return {"results": results, "payload": payload}


def test_bench_hotpath_speedup(benchmark, comparisons):
    """Every scheme keeps its gated share of the committed speedup over
    the pre-vectorization path, and is faster than it everywhere."""

    def check():
        assert_gates("perf_hotpath", comparisons["payload"], "hot-path speedups hold")
        for name, c in comparisons["results"].items():
            assert c.speedup > 1.0, (name, c.speedup)
        return True

    assert benchmark(check)


def test_bench_hotpath_phases(benchmark, comparisons):
    """Per-phase instrumentation is recorded and accounts for the step."""

    def check():
        for c in comparisons["results"].values():
            phases = c.vectorized.phase_seconds
            assert {"forward_backward", "fuse", "aggregate", "apply"} <= set(phases)
            # Mean phase totals stay in the ballpark of the median step
            # (loose bound: instrumentation must not invent time).
            assert sum(phases.values()) <= c.vectorized.seconds_per_step * 2.0
        return True

    assert benchmark(check)
