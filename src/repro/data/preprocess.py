"""Decode and augmentation pipeline.

"the pre-processing process includes the decoding of input images (e.g.,
JPEG files) and normalization.  Then the pre-processed data should be
augmented (e.g., mirror, crop, etc.) before sent to GPU" (§4.1).

Synthetic encoded images carry a header (sample id, resolution) followed
by a compressed-size filler payload; :func:`decode_image` expands the
header deterministically into a pixel array (real NumPy work), and
:func:`augment_image` applies a real random crop + horizontal flip +
normalisation.  Virtual CPU cost is charged through
:class:`PreprocessModel` so the Fig. 1 / Fig. 9 I/O accounting matches a
real CPU-bound pipeline.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.utils.seeding import RandomState, new_rng

#: Encoded header: magic, sample id, height, width.
_HEADER = struct.Struct("<4sIHH")
_MAGIC = b"SIMG"

#: ImageNet-ish channel statistics used for normalisation.
_CHANNEL_MEAN = np.array([0.485, 0.456, 0.406], dtype=np.float32)
_CHANNEL_STD = np.array([0.229, 0.224, 0.225], dtype=np.float32)


def encode_image(sample_id: int, resolution: int, *, quality_bytes_per_pixel: float = 0.6) -> bytes:
    """Produce a synthetic 'JPEG': a header plus compressed-size filler.

    The filler length models JPEG compression (~0.6 bytes/pixel for
    photographic content), so storage-tier timing sees realistic sizes.
    """
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    if sample_id < 0:
        raise ValueError(f"sample_id must be non-negative, got {sample_id}")
    header = _HEADER.pack(_MAGIC, sample_id, resolution, resolution)
    payload_len = max(0, int(resolution * resolution * quality_bytes_per_pixel) - len(header))
    # Deterministic filler; content is irrelevant, length is what matters.
    filler = (sample_id % 251).to_bytes(1, "little") * payload_len
    return header + filler


def decode_image(encoded: bytes) -> np.ndarray:
    """Decode a synthetic image into an ``(H, W, 3)`` uint8 array.

    Deterministic in the sample id, so a cache hit provably returns the
    same pixels as a fresh decode.
    """
    if len(encoded) < _HEADER.size:
        raise ValueError("encoded payload too short for header")
    magic, sample_id, height, width = _HEADER.unpack(encoded[: _HEADER.size])
    if magic != _MAGIC:
        raise ValueError(f"bad magic {magic!r}: not a synthetic image")
    rng = new_rng(0x51AB00 + sample_id)
    return rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)


def augment_image(
    image: np.ndarray, out_resolution: int, rng: RandomState
) -> np.ndarray:
    """Random crop to ``out_resolution``, random mirror, normalise to float32."""
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) image, got shape {image.shape}")
    height, width, _ = image.shape
    if out_resolution > min(height, width):
        # Upsample by tiling (nearest) when the stored resolution is
        # smaller than requested — keeps the pipeline total.
        reps = int(np.ceil(out_resolution / min(height, width)))
        image = np.tile(image, (reps, reps, 1))
        height, width, _ = image.shape
    top = int(rng.integers(0, height - out_resolution + 1))
    left = int(rng.integers(0, width - out_resolution + 1))
    crop = image[top : top + out_resolution, left : left + out_resolution]
    if rng.random() < 0.5:
        crop = crop[:, ::-1]
    out = crop.astype(np.float32) / 255.0
    return (out - _CHANNEL_MEAN) / _CHANNEL_STD


@dataclass(frozen=True)
class PreprocessModel:
    """Virtual CPU cost of the pre-processing stages.

    JPEG decoding runs at a few tens of MB of *pixels* per second per
    core; cloud training instances dedicate a handful of cores per GPU
    to the input pipeline.  Costs are per byte of decoded pixel data.
    """

    decode_bytes_per_sec: float = 80e6
    augment_bytes_per_sec: float = 400e6

    def decode_time(self, pixel_bytes: int) -> float:
        if pixel_bytes < 0:
            raise ValueError(f"pixel_bytes must be non-negative, got {pixel_bytes}")
        return pixel_bytes / self.decode_bytes_per_sec

    def augment_time(self, pixel_bytes: int) -> float:
        if pixel_bytes < 0:
            raise ValueError(f"pixel_bytes must be non-negative, got {pixel_bytes}")
        return pixel_bytes / self.augment_bytes_per_sec


__all__ = [
    "encode_image",
    "decode_image",
    "augment_image",
    "PreprocessModel",
]
