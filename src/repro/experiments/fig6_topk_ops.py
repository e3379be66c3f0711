"""Fig. 6: top-k operator comparison (nn.topk vs DGC vs MSTopK).

The paper measures selection time on a V100 for vector lengths 256K to
128M at ``k = 0.001 d`` with 30 MSTopK samplings, averaging 100
iterations after 5 warmups.  We report two views:

* **Measured (CPU)** — wall-clock of the real NumPy implementations
  (full-sort exact top-k, DGC double sampling, MSTopK's threshold
  passes).  CPU sort/scan cost ratios differ from CUDA's, so only the
  "MSTopK ≪ naive sort" part of the ordering is expected to transfer.
* **GPU projection** — the calibrated V100 kernel model
  (:mod:`repro.cluster.gpu`), which reproduces the paper's full
  ordering MSTopK < DGC < nn.topk and the curve shapes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.cluster.gpu import (
    V100,
    dgc_topk_gpu_time,
    exact_topk_gpu_time,
    mstopk_gpu_time,
)
from repro.compression.dgc import DGCTopK
from repro.compression.exact_topk import naive_topk_sort
from repro.compression.mstopk import mstopk_select
from repro.utils.seeding import new_rng
from repro.utils.stats import RunningStat
from repro.utils.tables import print_table

#: Paper sweep: "different length of vectors from 256 thousand to 128
#: million".  The default harness sweep stops at 8M to keep CI fast;
#: pass ``sizes=SMALL_SIZES + LARGE_SIZES`` for the paper's full range.
SMALL_SIZES = (256_000, 1_000_000, 2_000_000, 4_000_000, 8_000_000)
LARGE_SIZES = (16_000_000, 32_000_000, 64_000_000, 128_000_000)

DENSITY = 0.001  # "k = 0.001 × d"
N_SAMPLINGS = 30  # "The number of samplings for MSTopK is 30"


@dataclass(frozen=True)
class OperatorTiming:
    """One (operator, size) point of Fig. 6."""

    operator: str
    d: int
    cpu_seconds: float | None
    gpu_projected: float


def _measure(fn, x: np.ndarray, *, warmup: int, repeats: int) -> float:
    for _ in range(warmup):
        fn(x)
    stat = RunningStat()
    for _ in range(repeats):
        start = time.perf_counter()
        fn(x)
        stat.add(time.perf_counter() - start)
    return stat.mean


def run(
    sizes: tuple[int, ...] = SMALL_SIZES,
    *,
    measure_cpu: bool = True,
    warmup: int = 1,
    repeats: int = 3,
    seed: int = 0,
) -> list[OperatorTiming]:
    rng = new_rng(seed)
    dgc = DGCTopK(sample_fraction=0.01)
    rows: list[OperatorTiming] = []
    for d in sizes:
        k = max(1, int(DENSITY * d))
        x = rng.normal(size=d) if measure_cpu else None
        ops = (
            ("nn.topk", lambda v: naive_topk_sort(v, k), exact_topk_gpu_time(d)),
            ("DGC", lambda v: dgc.select(v, k, rng=rng), dgc_topk_gpu_time(d)),
            (
                "MSTopK",
                lambda v: mstopk_select(v, k, n_samplings=N_SAMPLINGS, rng=rng),
                mstopk_gpu_time(d, n_samplings=N_SAMPLINGS),
            ),
        )
        for name, fn, gpu_time in ops:
            cpu = _measure(fn, x, warmup=warmup, repeats=repeats) if measure_cpu else None
            rows.append(OperatorTiming(name, d, cpu, gpu_time))
    return rows


def main(*, fast: bool = False) -> None:
    """Render the Fig. 6 table; ``fast`` skips the CPU wall-clock
    measurement and trims the sweep to the two smallest sizes."""
    if fast:
        rows = run(sizes=SMALL_SIZES[:2], measure_cpu=False)
    else:
        rows = run()
    table = [
        [
            r.operator,
            f"{r.d / 1e6:g}M",
            "-" if r.cpu_seconds is None else round(r.cpu_seconds, 4),
            round(r.gpu_projected, 5),
        ]
        for r in rows
    ]
    print_table(
        ["Operator", "Elements", "CPU measured (s)", "V100 projected (s)"],
        table,
        title=(
            "Fig. 6: top-k operator time, k = 0.001 d, 30 samplings "
            f"(GPU model: {V100.name})"
        ),
    )


if __name__ == "__main__":
    main()
