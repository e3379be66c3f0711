"""GPU compute-cost model.

The paper's kernels of interest (top-k selection, LARS norms) are
memory-bandwidth bound on a V100, with two regimes the paper leans on:

* **Coalesced scans** (MSTopK's threshold-count passes) stream the tensor
  at close to peak HBM2 bandwidth — "no expensive memory access
  operations ... so it would be efficient on GPUs" (§3.1).
* **Irregular access** (sort-based top-k) achieves a small fraction of
  peak — "the exact top-k selection on the GPU generally requires
  irregular memory access which is not friendly to the GPU architecture"
  (§5.2, citing Shanbhag et al. 2018).

This module turns those statements into numbers so that the Fig. 6 / Fig. 8
GPU projections and the PTO model have a common substrate.  Constants are
calibrated against the paper's measured curves; see
``repro/perf/calibration.py`` for the cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Bytes of one gradient element: the kernels modelled run on float32.
FP32_BYTES = 4


@dataclass(frozen=True)
class GpuSpec:
    """A GPU's performance envelope for the kernels we model."""

    name: str
    memory_bandwidth: float  # bytes/s, peak HBM bandwidth
    kernel_launch_overhead: float  # seconds per kernel launch
    #: Fraction of peak bandwidth achieved by coalesced streaming kernels.
    streaming_efficiency: float = 0.85
    #: Fraction of peak bandwidth achieved by sort-like irregular kernels.
    #: Calibrated to Fig. 6's measured ``nn.topk`` curve (~1.2 s at 128M
    #: elements, ~0.25 s at 25M).
    irregular_efficiency: float = 0.0125

    def scan_time(self, nbytes: float, passes: int = 1) -> float:
        """Time for ``passes`` coalesced streaming passes over ``nbytes``."""
        if nbytes < 0 or passes < 0:
            raise ValueError("nbytes and passes must be non-negative")
        bandwidth = self.memory_bandwidth * self.streaming_efficiency
        return passes * (self.kernel_launch_overhead + nbytes / bandwidth)

    def sort_time(self, n_elements: int) -> float:
        """Time for a sort-based selection over ``n_elements``.

        Modelled as ``n log2 n`` memory operations at the irregular-access
        bandwidth — this reproduces the super-linear growth of
        ``nn.topk`` in paper Fig. 6.
        """
        if n_elements < 0:
            raise ValueError(f"n_elements must be non-negative, got {n_elements}")
        if n_elements <= 1:
            return self.kernel_launch_overhead
        bandwidth = self.memory_bandwidth * self.irregular_efficiency
        ops_bytes = n_elements * math.log2(n_elements) * FP32_BYTES
        return self.kernel_launch_overhead + ops_bytes / bandwidth

    def gather_time(self, n_elements: int) -> float:
        """Random-index gather (used by DGC's sampling step)."""
        bandwidth = self.memory_bandwidth * self.irregular_efficiency
        return self.kernel_launch_overhead + n_elements * FP32_BYTES / bandwidth


#: Tesla V100-32GB (the paper's GPU): 900 GB/s HBM2, 15.7 TFLOPS FP32,
#: 125 TFLOPS tensor cores, ~5 µs launch overhead through a framework.
V100 = GpuSpec(
    name="Tesla V100-32GB",
    memory_bandwidth=900e9,
    kernel_launch_overhead=5e-6,
)


def mstopk_gpu_time(
    d: int,
    *,
    n_samplings: int = 30,
    gpu: GpuSpec = V100,
) -> float:
    """GPU-projected time of MSTopK (Algorithm 1) on a ``d``-vector.

    Each of the ``N`` binary-search iterations is one coalesced
    count-above-threshold pass; setup (abs/mean/max) and the final
    two-threshold selection add a handful of extra passes.
    """
    setup_passes = 3  # abs + mean-reduce + max-reduce
    select_passes = 2  # two masked selections (Algorithm 1 lines 25-29)
    passes = n_samplings + setup_passes + select_passes
    return gpu.scan_time(d * FP32_BYTES, passes=passes)


def exact_topk_gpu_time(d: int, *, gpu: GpuSpec = V100) -> float:
    """GPU-projected time of a sort-based exact top-k (``nn.topk``)."""
    return gpu.sort_time(d)


def dgc_topk_gpu_time(
    d: int,
    *,
    sample_fraction: float = 0.1,
    gpu: GpuSpec = V100,
) -> float:
    """GPU-projected time of DGC's double-sampling top-k (Lin et al. 2018).

    DGC samples a fraction of the gradient, runs an exact top-k on the
    sample to estimate the threshold, then selects and — because the
    estimate can overshoot — runs a second exact top-k on the candidate
    set ("it also requires at least two times of top-k operations on
    GPUs", paper §6).
    """
    if not 0 < sample_fraction <= 1:
        raise ValueError(f"sample_fraction must be in (0, 1], got {sample_fraction}")
    sample = max(1, int(d * sample_fraction))
    t_sample = gpu.gather_time(sample)
    t_topk = 2 * gpu.sort_time(sample)
    t_passes = gpu.scan_time(d * FP32_BYTES, passes=3)  # abs + threshold + select
    return t_sample + t_topk + t_passes


__all__ = [
    "GpuSpec",
    "V100",
    "mstopk_gpu_time",
    "exact_topk_gpu_time",
    "dgc_topk_gpu_time",
]
