"""Benchmark-suite fixtures.

Every bench regenerates one paper table/figure: it saves the rendered
table under ``results/`` (so the artefacts survive the run) and times a
representative kernel with pytest-benchmark.

Machine-readable results: every ``save_result`` call also emits a
schema-checked ``results/BENCH_<name>.json`` so benchmark outputs can be
tracked as trajectories across commits.  Benches that pass structured
``columns``/``rows`` get first-class tabular JSON; the rest get the text
artefact wrapped in the same envelope (:mod:`repro.utils.bench`).
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.utils.bench import bench_payload, validate_bench_payload
from repro.utils.seeding import new_rng

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def save_result(results_dir):
    """``save_result(name, text, *, columns=, rows=, meta=)``.

    Writes the text artefact under ``results/<name>.txt`` and a
    schema-checked JSON twin under ``results/BENCH_<name>.json``, and
    returns the payload.  Pass ``columns``/``rows`` to make the JSON
    structured (preferred); the row cells must be JSON scalars.
    """

    def _save(
        name: str,
        text: str,
        *,
        columns: list[str] | None = None,
        rows: list[list] | None = None,
        meta: dict | None = None,
    ) -> dict:
        # Validate before touching disk so a schema violation never
        # leaves a text artefact without its JSON twin.
        payload = validate_bench_payload(
            bench_payload(name, text=text, columns=columns, rows=rows, meta=meta)
        )
        (results_dir / f"{name}.txt").write_text(payload["text"])
        (results_dir / f"BENCH_{name}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        return payload

    return _save


@pytest.fixture
def rng():
    return new_rng(2024)
