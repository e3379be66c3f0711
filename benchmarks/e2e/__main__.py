"""``python -m benchmarks.e2e {run,calibrate,compare}``."""

import sys

from .cli import main

sys.exit(main())
