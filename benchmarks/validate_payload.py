"""Validate ``BENCH_*.json`` payloads against the envelope schema.

The CLI over :func:`repro.utils.bench.validate_bench_payload` for
``python -m repro ... --json`` / ``--out`` output; needs
``PYTHONPATH=src`` like everything else here::

    python benchmarks/validate_payload.py smoke_payload.json
"""

from __future__ import annotations

import json
import pathlib
import sys

from repro.utils.bench import validate_bench_payload


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: validate_payload.py <BENCH_*.json> [...]", file=sys.stderr)
        return 2
    for arg in argv:
        path = pathlib.Path(arg)
        payload = validate_bench_payload(json.loads(path.read_text()))
        detail = payload.get("meta", payload.get("columns"))
        print(f"ok: {path} ({payload['bench']}) {detail}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
