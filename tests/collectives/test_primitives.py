"""Basic collective primitives."""

import numpy as np
import pytest

from repro.collectives.primitives import broadcast, gather, scatter
from tests.collectives.list_collectives import validate_group


class TestValidateGroup:
    def test_accepts_uniform_group(self):
        group = validate_group([np.zeros(4), np.ones(4)])
        assert len(group) == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            validate_group([])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="rank 1"):
            validate_group([np.zeros(4), np.zeros(5)])

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            validate_group([np.zeros((2, 2))])

    def test_rejects_dtype_mismatch(self):
        with pytest.raises(ValueError):
            validate_group([np.zeros(4, dtype=np.float64), np.zeros(4, dtype=np.float32)])


class TestBroadcast:
    def test_every_worker_gets_copy(self, rng):
        x = rng.normal(size=8)
        copies = broadcast(x, 3)
        assert len(copies) == 3
        for c in copies:
            np.testing.assert_array_equal(c, x)
        copies[0][0] = 99.0  # copies are independent
        assert copies[1][0] != 99.0

    def test_invalid_world(self):
        with pytest.raises(ValueError):
            broadcast(np.zeros(2), 0)


class TestReduceGatherScatter:
    def test_gather_preserves_rank_order(self):
        out = gather([np.array([1.0]), np.array([2.0])])
        assert out[0][0] == 1.0 and out[1][0] == 2.0

    def test_gather_empty(self):
        with pytest.raises(ValueError):
            gather([])

    def test_scatter_reassembles(self, rng):
        x = rng.normal(size=11)
        chunks = scatter(x, 3)
        np.testing.assert_array_equal(np.concatenate(chunks), x)

    def test_scatter_rejects_2d(self):
        with pytest.raises(ValueError):
            scatter(np.zeros((2, 2)), 2)
