"""Synthetic dataset generators."""

import numpy as np
import pytest

from repro.train.synthetic import (
    make_blob_classification,
    make_spiral_classification,
    make_synthetic_images,
    train_val_split,
)
from repro.utils.seeding import new_rng


class TestSpirals:
    def test_shapes_and_classes(self, rng):
        x, y = make_spiral_classification(200, num_classes=4, rng=rng)
        assert x.shape == (200, 2)
        assert set(np.unique(y)) == {0, 1, 2, 3}

    def test_deterministic(self):
        a = make_spiral_classification(100, rng=new_rng(3))
        b = make_spiral_classification(100, rng=new_rng(3))
        np.testing.assert_array_equal(a[0], b[0])

    def test_too_few_samples(self, rng):
        with pytest.raises(ValueError):
            make_spiral_classification(2, num_classes=4, rng=rng)

    def test_not_linearly_trivial(self, rng):
        # Class means overlap near the origin — a property linear probes
        # rely on being broken.
        x, y = make_spiral_classification(400, num_classes=2, rng=rng)
        mean_gap = np.linalg.norm(x[y == 0].mean(axis=0) - x[y == 1].mean(axis=0))
        assert mean_gap < 1.0


class TestBlobs:
    def test_shapes(self, rng):
        x, y = make_blob_classification(50, num_classes=3, dim=5, rng=rng)
        assert x.shape == (50, 5)
        assert y.max() < 3


class TestImages:
    def test_shapes(self, rng):
        x, y = make_synthetic_images(40, num_classes=4, image_size=12, rng=rng)
        assert x.shape == (40, 3, 12, 12)

    def test_class_signal_present(self, rng):
        # Per-class mean images must differ (the injected grating).
        x, y = make_synthetic_images(400, num_classes=2, image_size=12, rng=rng)
        gap = np.abs(x[y == 0].mean(axis=0) - x[y == 1].mean(axis=0)).mean()
        assert gap > 0.2


class TestSplit:
    def test_sizes(self, rng):
        x, y = make_blob_classification(100, rng=rng)
        tx, ty, vx, vy = train_val_split(x, y)
        assert len(tx) == 80 and len(vx) == 20
        assert len(ty) == 80 and len(vy) == 20

    def test_a_tiny_set_keeps_one_validation_sample(self, rng):
        x, y = make_blob_classification(3, rng=rng)
        tx, _, vx, _ = train_val_split(x, y)
        assert len(tx) == 2 and len(vx) == 1
