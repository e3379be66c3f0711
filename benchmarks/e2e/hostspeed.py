"""Host-speed reference: cancel the sandbox's slow drift.

On a shared 2-core VM whole 20-second windows run 10–30 % slower or
faster than their neighbours — wall and CPU time alike, the same factor
for interpreter-bound and numpy-bound code — so the same program reads
±12 % from run to run and no within-run statistic helps.  What does
help: time a fixed kernel (a bytecode loop, a small matmul, a streaming
pass) *between* the timed ops of the same run.  Across 15-second windows
the kernel's median tracks the workload's median closely enough that
their ratio spreads 2 % where the raw time spreads 6–12 %.

The end-to-end rates and latencies are therefore reported at reference
speed: ``rate * factor`` and ``time / factor`` with ``factor = median
kernel time / NOMINAL_S`` (1.0 = the host the bounds were calibrated
on, > 1 = a slower moment).  The kernel lives here and touches nothing
under ``src/``, so no change to the program can move it; raw wall-clock
rates stay available in the per-layer list, with the factor itself.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

#: Median kernel time on the calibration host at its usual speed.
NOMINAL_S = 0.005


class HostSpeed:
    """Kernel samples taken between timed ops; never inside one."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._square = rng.normal(size=(96, 96))
        self._stream = rng.normal(size=50_000)
        self.samples: list[float] = []

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            start = time.perf_counter()
            table: dict[int, int] = {}
            total = 0
            for i in range(30_000):
                table[i & 255] = i
                total += table.get((i * 7) & 255, 0)
            for _ in range(24):
                (self._square @ self._square).sum()
                (self._stream * 1.0001 + 0.5).sum()
            self.samples.append(time.perf_counter() - start)

    @contextmanager
    def sampling_every(self, interval_s: float):
        """Sample on a timer *inside* one long op.

        For an op that is a single multi-second call there is no
        "between": an interval timer interrupts it instead (the handler
        runs in the main thread, between two bytecodes of the op, and
        touches none of its state).  Yields a callable giving the
        seconds spent sampling so far, for the caller to take off the
        op's wall time.
        """
        self.sample()  # before the op starts: even a short op gets one
        first = len(self.samples)
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)
        try:
            yield lambda: sum(self.samples[first:])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self) -> float:
        return statistics.median(self.samples) / NOMINAL_S

