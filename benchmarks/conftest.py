"""Benchmark-suite fixtures.

Every bench regenerates one paper table/figure: it saves the result as a
schema-checked ``results/BENCH_<name>.json`` (:mod:`repro.utils.bench`;
the rendered table is its ``text`` field) and times a representative
kernel with pytest-benchmark.  Benches that pass structured
``columns``/``rows`` get first-class tabular JSON; the rest get the text
wrapped in the same envelope.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.utils.bench import bench_payload, validate_bench_payload
from repro.utils.seeding import new_rng

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def save_result():
    """``save_result(name, text, *, columns=, rows=, meta=)``.

    Writes a schema-checked ``results/BENCH_<name>.json`` and returns the
    payload.  Pass ``columns``/``rows`` to make the JSON structured
    (preferred); the row cells must be JSON scalars.
    """

    def _save(
        name: str,
        text: str,
        *,
        columns: list[str] | None = None,
        rows: list[list] | None = None,
        meta: dict | None = None,
    ) -> dict:
        payload = validate_bench_payload(
            bench_payload(name, text=text, columns=columns, rows=rows, meta=meta)
        )
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"BENCH_{name}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        return payload

    return _save


@pytest.fixture
def rng():
    return new_rng(2024)
