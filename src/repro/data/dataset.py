"""A synthetic dataset standing in for ImageNet.

The paper trains CNNs on ImageNet (1.28M images).  We synthesise a
structurally equivalent dataset: encoded images with realistic
compressed sizes.  The content is random — the data path (storage
tiers, decode, augmentation, sharding) is what the reproduction
exercises.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.preprocess import encode_image
from repro.utils.seeding import new_rng


@dataclass
class SyntheticImageDataset:
    """An ImageNet-like collection of encoded images.

    Parameters
    ----------
    num_samples:
        Dataset size (ImageNet train split is 1,281,167; tests use small
        values).
    resolution:
        Stored resolution of the synthetic JPEGs.
    num_classes:
        Label space size (1000 for ImageNet).
    seed:
        Label/content seed.
    """

    num_samples: int
    resolution: int = 224
    num_classes: int = 1000
    seed: int = 0
    _labels: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {self.num_samples}")
        if self.num_classes < 1:
            raise ValueError(f"num_classes must be >= 1, got {self.num_classes}")
        rng = new_rng(self.seed)
        self._labels = rng.integers(0, self.num_classes, size=self.num_samples)

    def key(self, index: int) -> str:
        """Storage key of one sample (the paper's KV cache is keyed by index)."""
        self._check(index)
        return f"img-{index:09d}"

    def encoded(self, index: int) -> bytes:
        """The encoded payload as it would sit on NFS."""
        self._check(index)
        return encode_image(index, self.resolution)

    def label(self, index: int) -> int:
        self._check(index)
        return int(self._labels[index])

    @property
    def encoded_sample_bytes(self) -> int:
        """Size of one encoded sample (all samples are equal-sized here)."""
        return len(self.encoded(0))

    def _check(self, index: int) -> None:
        if not 0 <= index < self.num_samples:
            raise IndexError(f"sample {index} out of range [0, {self.num_samples})")

    def __len__(self) -> int:
        return self.num_samples


__all__ = ["SyntheticImageDataset"]
