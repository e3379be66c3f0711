"""GPU kernel cost model and its Fig. 6 calibration anchors."""

import pytest

from repro.cluster.gpu import (
    V100,
    GpuSpec,
    dgc_topk_gpu_time,
    exact_topk_gpu_time,
    mstopk_gpu_time,
)


class TestGpuSpec:
    def test_scan_time_linear_in_passes(self):
        one = V100.scan_time(1e9, passes=1)
        ten = V100.scan_time(1e9, passes=10)
        assert ten == pytest.approx(10 * one)

    def test_sort_time_superlinear(self):
        # n log n: doubling n more than doubles time.
        assert V100.sort_time(2_000_000) > 2 * V100.sort_time(1_000_000)

    def test_sort_time_tiny_input(self):
        assert V100.sort_time(0) == V100.kernel_launch_overhead
        assert V100.sort_time(1) == V100.kernel_launch_overhead

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            V100.scan_time(-1)
        with pytest.raises(ValueError):
            V100.sort_time(-1)


class TestFig6Anchors:
    """The projections must match the paper's measured curve shapes."""

    def test_nn_topk_128m_near_paper(self):
        # Fig. 6b: nn.topk ≈ 1.2 s at 128M elements.
        t = exact_topk_gpu_time(128_000_000)
        assert 0.6 < t < 2.4

    def test_nn_topk_25m_near_paper(self):
        # Fig. 1 / Fig. 6: exact top-k on the ResNet-50 gradient ≈ 0.239 s.
        t = exact_topk_gpu_time(25_560_000)
        assert 0.12 < t < 0.48

    def test_mstopk_is_negligible(self):
        # "our MSTopK only requires a negligible computing time".
        t = mstopk_gpu_time(128_000_000)
        assert t < 0.05

    def test_paper_ordering_holds_across_sizes(self):
        # MSTopK < DGC < nn.topk for every size in the paper's sweep.
        for d in (256_000, 1_000_000, 8_000_000, 64_000_000, 128_000_000):
            ms = mstopk_gpu_time(d)
            dgc = dgc_topk_gpu_time(d)
            exact = exact_topk_gpu_time(d)
            assert ms < dgc < exact, f"ordering broken at d={d}"

    def test_mstopk_scales_with_samplings(self):
        assert mstopk_gpu_time(10_000_000, n_samplings=60) > mstopk_gpu_time(
            10_000_000, n_samplings=30
        )

    def test_dgc_sample_fraction_validation(self):
        with pytest.raises(ValueError):
            dgc_topk_gpu_time(1000, sample_fraction=0.0)


class TestCustomGpu:
    def test_faster_memory_means_faster_scan(self):
        fast = GpuSpec("fast", memory_bandwidth=2e12, kernel_launch_overhead=1e-6)
        assert fast.scan_time(1e9) < V100.scan_time(1e9)
