"""The list-collective oracles' own input check."""

import numpy as np
import pytest

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
