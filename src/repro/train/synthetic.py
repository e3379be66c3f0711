"""Synthetic classification datasets for the convergence experiments.

Small, non-linearly-separable problems that a few thousand SGD steps can
solve: spirals (the MLP workload), Gaussian blobs (a linear sanity
check), and patterned images (the CNN workload).  All deterministic in
the seed.
"""

from __future__ import annotations

import numpy as np

from repro.utils.seeding import RandomState, new_rng


def make_spiral_classification(
    num_samples: int,
    *,
    num_classes: int = 4,
    rng: RandomState | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Interleaved 2-D spirals, one arm per class, with Gaussian noise of
    standard deviation ``0.15 t`` at arm parameter ``t``."""
    if num_samples < num_classes:
        raise ValueError("need at least one sample per class")
    rng = rng if rng is not None else new_rng()
    per_class = num_samples // num_classes
    xs, ys = [], []
    for c in range(num_classes):
        t = np.linspace(0.2, 1.0, per_class)
        angle = t * 4.0 * np.pi / num_classes + c * 2.0 * np.pi / num_classes
        radius = t
        x = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
        x += rng.normal(0.0, 0.15 * t[:, None], size=x.shape)
        xs.append(x)
        ys.append(np.full(per_class, c))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    order = rng.permutation(len(x))
    return x[order], y[order]


def make_blob_classification(
    num_samples: int,
    *,
    num_classes: int = 4,
    dim: int = 8,
    separation: float = 3.0,
    rng: RandomState | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian blobs with centres on a scaled simplex."""
    rng = rng if rng is not None else new_rng()
    centers = rng.normal(0.0, separation, size=(num_classes, dim))
    y = rng.integers(0, num_classes, size=num_samples)
    x = centers[y] + rng.normal(0.0, 1.0, size=(num_samples, dim))
    return x, y


def make_synthetic_images(
    num_samples: int,
    *,
    num_classes: int = 4,
    image_size: int = 16,
    channels: int = 3,
    rng: RandomState | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """NCHW images whose class determines an oriented frequency pattern.

    Class ``c`` injects a sinusoidal grating of amplitude 0.8 at angle
    ``c * pi / C`` on top of Gaussian noise (standard deviation 1.3) —
    learnable by a small conv net, hopeless for a linear model, which is
    what we want from a CNN benchmark.  That noise level keeps 15-epoch
    runs mid-curve so algorithm gaps stay visible (nothing saturates at
    100%).
    """
    rng = rng if rng is not None else new_rng()
    coords = np.arange(image_size)
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    y = rng.integers(0, num_classes, size=num_samples)
    x = rng.normal(0.0, 1.3, size=(num_samples, channels, image_size, image_size))
    for c in range(num_classes):
        mask = y == c
        angle = c * np.pi / num_classes
        pattern = 0.8 * np.sin(
            2.0 * np.pi * (np.cos(angle) * xx + np.sin(angle) * yy) / 6.0
        )
        x[mask] += pattern[None, None, :, :]
    return x, y


def train_val_split(
    x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic tail split of a fifth (inputs are already shuffled)."""
    n_val = max(1, int(len(x) * 0.2))
    return x[:-n_val], y[:-n_val], x[-n_val:], y[-n_val:]


__all__ = [
    "make_spiral_classification",
    "make_blob_classification",
    "make_synthetic_images",
    "train_val_split",
]
