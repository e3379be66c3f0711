"""The ``BENCH_*.json`` envelope: one builder, one validator.

Every machine-readable result this repo emits — the CLI's ``--json`` /
``--out`` payloads of ``run``, ``sched`` and ``serve`` — is the same
envelope, built by :func:`bench_payload` and checked
by :func:`validate_bench_payload`.  Emitters serialise with
``sort_keys=True``, so key order here is free.
"""

from __future__ import annotations

from typing import Sequence

from repro.utils.tables import format_table

#: Bump when the BENCH_*.json envelope changes shape.
BENCH_SCHEMA_VERSION = 1


def bench_payload(
    bench: str,
    *,
    text: str | None = None,
    title: str | None = None,
    columns: Sequence[str] | None = None,
    rows: Sequence[Sequence] | None = None,
    meta: dict | None = None,
) -> dict:
    """Build one envelope.

    Pass ``columns``/``rows`` together for a structured payload; ``text``
    defaults to the rendered table (headed by ``title``) and always ends
    with exactly the newline the text artefact on disk ends with.
    """
    if (columns is None) != (rows is None):
        raise ValueError("pass columns and rows together (or neither)")
    if text is None:
        text = format_table(columns, rows, title=title)
    payload: dict = {
        "bench": bench,
        "schema_version": BENCH_SCHEMA_VERSION,
        "structured": columns is not None,
        "text": text if text.endswith("\n") else text + "\n",
    }
    if columns is not None:
        payload["columns"] = list(columns)
        payload["rows"] = [list(row) for row in rows]
    if meta:
        payload["meta"] = dict(meta)
    return payload


def validate_bench_payload(payload: dict) -> dict:
    """Check a BENCH_*.json payload against the output schema.

    Schema (version 1):

    * ``bench`` — artefact name (non-empty string);
    * ``schema_version`` — :data:`BENCH_SCHEMA_VERSION`;
    * ``structured`` — bool; when true, ``columns`` (list of str) and
      ``rows`` (list of rows, each matching ``columns`` in length and
      containing only JSON scalars) are required;
    * ``text`` — the rendered text artefact (always present);
    * ``meta`` — optional dict of free-form scalars.

    Returns the payload unchanged; raises ``ValueError`` on violations.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"bench payload must be a mapping, got {type(payload).__name__}")
    for key in ("bench", "schema_version", "structured"):
        if key not in payload:
            raise ValueError(f"bench payload missing required key {key!r}")
    if not isinstance(payload["bench"], str) or not payload["bench"]:
        raise ValueError("bench payload 'bench' must be a non-empty string")
    if payload["schema_version"] != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"bench payload schema_version {payload['schema_version']!r} != "
            f"{BENCH_SCHEMA_VERSION}"
        )
    if not isinstance(payload.get("text"), str):
        raise ValueError("bench payload 'text' must be a string")
    if not isinstance(payload.get("meta", {}), dict):
        raise ValueError("bench payload 'meta' must be a dict")
    if payload["structured"]:
        columns = payload.get("columns")
        rows = payload.get("rows")
        if not isinstance(columns, list) or not columns or not all(
            isinstance(c, str) for c in columns
        ):
            raise ValueError("structured payload needs a non-empty str 'columns' list")
        if not isinstance(rows, list):
            raise ValueError("structured payload needs a 'rows' list")
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != len(columns):
                raise ValueError(
                    f"row {i} has {len(row) if isinstance(row, list) else 'no'} "
                    f"cells, expected {len(columns)}"
                )
            for cell in row:
                if not isinstance(cell, (str, int, float, bool, type(None))):
                    raise ValueError(
                        f"row {i} contains non-scalar cell {cell!r} "
                        f"({type(cell).__name__})"
                    )
    return payload


__all__ = ["BENCH_SCHEMA_VERSION", "bench_payload", "validate_bench_payload"]
