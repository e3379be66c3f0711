"""API facade smoke: config file → run() → schema-valid payload.

Loads the shipped ``examples/configs/smoke.json`` (the same file the CI
CLI smoke step executes), runs it through the facade, and checks that
the resulting :meth:`RunReport.bench_payload` passes the repo's
``BENCH_*.json`` schema gate and that the run is deterministic in its
seed.
"""

import pathlib

from repro.api import RunConfig, apply_overrides, run
from repro.utils.bench import validate_bench_payload

REPO = pathlib.Path(__file__).resolve().parent.parent
SMOKE_CONFIG = REPO / "examples" / "configs" / "smoke.json"


def test_bench_api_smoke_payload(benchmark, save_result):
    config = RunConfig.from_file(SMOKE_CONFIG)
    report = benchmark(lambda: run(config))

    payload = report.bench_payload("api_smoke")
    validate_bench_payload(payload)  # raises on schema violations

    save_result(
        "api_smoke",
        payload["text"],
        columns=payload["columns"],
        rows=payload["rows"],
        meta=payload["meta"],
    )
    assert report.mode == "train"
    assert report.summary["iterations"] > 0


def test_bench_api_smoke_deterministic(benchmark):
    config = RunConfig.from_file(SMOKE_CONFIG)

    def twice():
        a = run(config)
        b = run(config)
        return a, b

    a, b = benchmark.pedantic(twice, rounds=1, iterations=1)
    assert a.summary == b.summary


def test_bench_api_smoke_override(benchmark):
    """--set equivalent: density override changes the run, same schema."""
    config = apply_overrides(
        RunConfig.from_file(SMOKE_CONFIG), ["comm.density=0.5", "name=smoke-dense"]
    )
    report = benchmark.pedantic(lambda: run(config), rounds=1, iterations=1)
    assert report.name == "smoke-dense"
    validate_bench_payload(report.bench_payload())
