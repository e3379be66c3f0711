"""Scaling-efficiency sweeps + the §1 motivation claim."""

import pytest

from repro.perf.efficiency import efficiency_sweep, intro_claim


class TestIntroClaim:
    def test_baseline_speedup_near_40x(self):
        # §1: "128 Nvidia V100 GPUs ... can only achieve about 40x
        # speedup ... a very low scaling efficiency of 31%."
        point = intro_claim()
        assert point.world_size == 128
        assert 30 < point.speedup < 60, point.speedup
        assert 0.23 < point.efficiency < 0.47, point.efficiency


class TestSweep:
    @pytest.fixture(scope="class")
    def points(self):
        return efficiency_sweep(node_counts=(1, 4, 16, 32))

    def test_curve_shape(self, points):
        by = {(p.scheme, p.num_nodes): p for p in points}
        # Efficiency decays (within tolerance) with scale for every
        # scheme — the bandwidth terms saturate, so tails are flat.
        for scheme in ("Dense-SGD", "2DTAR-SGD", "MSTopK-SGD"):
            assert (
                by[(scheme, 1)].efficiency
                >= by[(scheme, 4)].efficiency - 0.01
                >= by[(scheme, 16)].efficiency - 0.02
            )
        # Crossing the node boundary costs the dense baseline dearly
        # (its single-node efficiency is itself capped by the naive I/O
        # and serial LARS it also carries).
        assert by[("Dense-SGD", 1)].efficiency > 1.3 * by[("Dense-SGD", 4)].efficiency
        # ... but the optimised schemes decay far more slowly.
        assert by[("MSTopK-SGD", 16)].efficiency > 2 * by[("Dense-SGD", 16)].efficiency

    def test_gap_to_baseline_widens_with_scale(self, points):
        by = {(p.scheme, p.num_nodes): p.efficiency for p in points}

        def gap(nodes):
            return by[("MSTopK-SGD", nodes)] - by[("Dense-SGD", nodes)]

        assert gap(32) > gap(1) - 0.05

    def test_throughput_still_grows_with_nodes(self, points):
        by = {(p.scheme, p.num_nodes): p for p in points}
        for scheme in ("Dense-SGD", "2DTAR-SGD", "MSTopK-SGD"):
            assert by[(scheme, 16)].throughput > by[(scheme, 4)].throughput

    def test_single_node_efficiency_high(self, points):
        by = {(p.scheme, p.num_nodes): p for p in points}
        # Inside one node (NVLink only) even the dense baseline is fine.
        assert by[("2DTAR-SGD", 1)].efficiency > 0.8

    def test_point_consistency(self, points):
        for p in points:
            assert p.world_size == p.num_nodes * 8
            assert p.efficiency == pytest.approx(p.speedup / p.world_size)
