"""Wait-free backprop timeline with tensor fusion."""

import pytest

from repro.models.profiles import resnet50_profile
from repro.perf.timeline import (
    build_buckets,
    derive_overlap_fraction,
    simulate_backward_overlap,
)


def constant_rate_comm(bandwidth: float, latency: float = 0.0):
    return lambda nbytes: latency + nbytes / bandwidth


class TestBuckets:
    def test_threshold_packs_layers(self):
        buckets = build_buckets([10, 10, 10, 10], [1, 2, 3, 4], fusion_threshold=20)
        assert len(buckets) == 2
        assert buckets[0].layer_indices == (0, 1)
        assert buckets[0].nbytes == 20
        assert buckets[0].ready_at == 2

    def test_tail_bucket_flushed(self):
        buckets = build_buckets([10, 10, 5], [1, 2, 3], fusion_threshold=20)
        assert len(buckets) == 2
        assert buckets[1].nbytes == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            build_buckets([1], [1.0], fusion_threshold=0)
        with pytest.raises(ValueError):
            build_buckets([1, 2], [1.0], fusion_threshold=8)


class TestSimulation:
    def test_fast_network_fully_overlaps(self):
        result = simulate_backward_overlap(
            [1000] * 10,
            backward_time=1.0,
            comm_time_fn=constant_rate_comm(1e12),
            fusion_threshold=4000,
        )
        assert result.visible_comm < 1e-6
        # Only the final bucket's transfer can remain exposed.
        assert result.overlap_ratio > 0.8

    def test_slow_network_is_exposed(self):
        result = simulate_backward_overlap(
            [1000] * 10,
            backward_time=0.001,
            comm_time_fn=constant_rate_comm(1e6),  # 40 ms of traffic
            fusion_threshold=4000,
        )
        assert result.visible_comm > 0.01
        assert result.overlap_ratio < 0.5

    def test_comm_never_ends_before_last_bucket_ready(self):
        result = simulate_backward_overlap(
            [100] * 5,
            backward_time=2.0,
            comm_time_fn=constant_rate_comm(1e12),
        )
        assert result.comm_end >= result.backward_end - 1e-12

    def test_iteration_span(self):
        result = simulate_backward_overlap(
            [1000], backward_time=1.0, comm_time_fn=constant_rate_comm(1e3)
        )
        assert result.iteration_span == result.comm_end

    def test_fusion_reduces_latency_cost(self):
        # Many small layers + per-message latency: big buckets win.
        layers = [100] * 100
        comm = constant_rate_comm(1e9, latency=1e-3)
        fused = simulate_backward_overlap(
            layers, backward_time=0.01, comm_time_fn=comm, fusion_threshold=1 << 20
        )
        unfused = simulate_backward_overlap(
            layers, backward_time=0.01, comm_time_fn=comm, fusion_threshold=1
        )
        assert fused.comm_end < unfused.comm_end / 5

    def test_fusion_buffer_tradeoff_on_resnet50(self, testbed):
        # Horovod's 64 MiB default between the two failure modes: tiny
        # buffers pay a latency per collective, one giant buffer waits
        # for the whole backward pass before sending anything.
        from repro.comm.dense import Torus2DAllReduce

        scheme = Torus2DAllReduce(testbed, wire_bytes=2)
        by_threshold = {
            threshold: simulate_backward_overlap(
                resnet50_profile().layer_sizes,
                backward_time=0.6 * 256 / 1150,
                comm_time_fn=lambda nbytes: scheme.time_model(max(1, nbytes // 2)).total,
                fusion_threshold=threshold,
                bytes_per_element=2,
            )
            for threshold in (256 << 10, 64 << 20, 512 << 20)
        }
        assert by_threshold[256 << 10].busy_comm > by_threshold[64 << 20].busy_comm
        assert by_threshold[512 << 20].visible_comm >= by_threshold[64 << 20].visible_comm

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            simulate_backward_overlap(
                [0, 0], backward_time=1.0, comm_time_fn=constant_rate_comm(1e9)
            )


class TestDerivedOverlap:
    def test_matches_calibration_order_of_magnitude(self, testbed):
        """The bottom-up overlap fraction lands near the calibrated 0.15."""
        from repro.comm.dense import Torus2DAllReduce

        profile = resnet50_profile()
        scheme = Torus2DAllReduce(testbed, wire_bytes=2)

        def comm_fn(nbytes: int) -> float:
            elements = nbytes // 2
            return scheme.time_model(max(1, elements)).total

        fraction = derive_overlap_fraction(
            profile.layer_sizes,
            ffbp_time=256 / 1150,
            comm_time_fn=comm_fn,
        )
        assert 0.0 <= fraction <= 0.6
        # Communication is partially hidden — not zero, not total.
        assert fraction > 0.0

    def test_zero_when_network_instant(self):
        fraction = derive_overlap_fraction(
            [1000] * 4, ffbp_time=1.0, comm_time_fn=lambda _: 0.0
        )
        assert fraction == 0.0
