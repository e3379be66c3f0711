"""Driver entry point: one workload, one JSON result line.

    python3 benchmarks/e2e/bench.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; see ``README.md`` beside this file.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    # Nothing to build or measure: fail before printing any result.
    sys.exit(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path.insert(0, str(ROOT))

from benchmarks.e2e.cli import bench_main  # noqa: E402

if __name__ == "__main__":
    sys.exit(bench_main())
