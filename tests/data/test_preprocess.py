"""Decode/augment pipeline."""

import numpy as np
import pytest

from repro.data.preprocess import (
    PreprocessModel,
    augment_image,
    decode_image,
    encode_image,
)
from repro.utils.seeding import new_rng


class TestEncodeDecode:
    def test_decode_shape_and_dtype(self):
        img = decode_image(encode_image(7, 32))
        assert img.shape == (32, 32, 3)
        assert img.dtype == np.uint8

    def test_decode_deterministic_in_sample_id(self):
        a = decode_image(encode_image(3, 16))
        b = decode_image(encode_image(3, 16))
        np.testing.assert_array_equal(a, b)

    def test_different_samples_differ(self):
        a = decode_image(encode_image(1, 16))
        b = decode_image(encode_image(2, 16))
        assert not np.array_equal(a, b)

    def test_encoded_size_tracks_resolution(self):
        small = len(encode_image(0, 96))
        large = len(encode_image(0, 224))
        assert large > 4 * small  # ~(224/96)^2 ≈ 5.4

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            decode_image(b"JPEG" + b"\x00" * 100)

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            decode_image(b"xy")

    def test_validation(self):
        with pytest.raises(ValueError):
            encode_image(-1, 32)
        with pytest.raises(ValueError):
            encode_image(0, 0)


class TestAugment:
    def test_output_shape(self, rng):
        img = decode_image(encode_image(0, 64))
        out = augment_image(img, 48, rng)
        assert out.shape == (48, 48, 3)
        assert out.dtype == np.float32

    def test_normalised_range(self, rng):
        img = decode_image(encode_image(0, 64))
        out = augment_image(img, 32, rng)
        # Normalised uint8 data lands within a few channel-stddevs.
        assert -4.0 < out.min() and out.max() < 5.0

    def test_upsample_path(self, rng):
        img = decode_image(encode_image(0, 16))
        out = augment_image(img, 24, rng)
        assert out.shape == (24, 24, 3)

    def test_random_crop_varies(self):
        img = decode_image(encode_image(0, 64))
        a = augment_image(img, 32, new_rng(1))
        b = augment_image(img, 32, new_rng(2))
        assert not np.array_equal(a, b)

    def test_rejects_bad_shape(self, rng):
        with pytest.raises(ValueError):
            augment_image(np.zeros((8, 8)), 4, rng)


class TestCostModel:
    def test_times_positive_and_linear(self):
        model = PreprocessModel()
        assert model.decode_time(2_000_000) == pytest.approx(
            2 * model.decode_time(1_000_000)
        )
        assert model.augment_time(1_000_000) < model.decode_time(1_000_000)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PreprocessModel().decode_time(-1)
        with pytest.raises(ValueError):
            PreprocessModel().augment_time(-1)
