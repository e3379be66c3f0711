"""Synthetic datasets."""

import pytest

from repro.data.dataset import SyntheticImageDataset


class TestImageDataset:
    def test_labels_deterministic(self):
        a = SyntheticImageDataset(50, seed=3)
        b = SyntheticImageDataset(50, seed=3)
        assert [a.label(i) for i in range(50)] == [b.label(i) for i in range(50)]

    def test_labels_in_range(self):
        ds = SyntheticImageDataset(100, num_classes=10)
        assert all(0 <= ds.label(i) < 10 for i in range(100))

    def test_keys_unique(self):
        ds = SyntheticImageDataset(20)
        keys = {ds.key(i) for i in range(20)}
        assert len(keys) == 20

    def test_encoded_sample_bytes_consistent(self):
        ds = SyntheticImageDataset(5, resolution=64)
        assert ds.encoded_sample_bytes == len(ds.encoded(3))

    def test_index_validation(self):
        ds = SyntheticImageDataset(5)
        with pytest.raises(IndexError):
            ds.label(5)
        with pytest.raises(IndexError):
            ds.encoded(-1)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            SyntheticImageDataset(0)

