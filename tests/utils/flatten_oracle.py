"""The list-of-tensors fusion the trainer used before :class:`FlatLayout`.

:func:`flatten_tensors` / :func:`unflatten_tensors` concatenate and split
tensors one call at a time.  They are the reference that
``FlatLayout.views`` and the trainer's compute stage are held to, and
the fusion step of the test-side ``ReferenceTrainer``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def flatten_tensors(tensors: Sequence[np.ndarray]) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Flatten a list of tensors into one vector plus their shapes.

    This is the "tensor fusion" primitive (Shi et al. 2019b; Horovod's
    fusion buffer): gradients of many layers are fused into one flat
    buffer before communication so the collective pays latency once.
    """
    shapes = [tuple(np.asarray(t).shape) for t in tensors]
    if not tensors:
        return np.empty(0), shapes
    flat = np.concatenate([np.asarray(t).ravel() for t in tensors])
    return flat, shapes


def unflatten_tensors(flat: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    """Inverse of :func:`flatten_tensors`."""
    tensors: list[np.ndarray] = []
    offset = 0
    for shape in shapes:
        size = int(np.prod(shape)) if shape else 1
        tensors.append(flat[offset : offset + size].reshape(shape))
        offset += size
    if offset != flat.size:
        raise ValueError(
            f"flat vector has {flat.size} elements but shapes account for {offset}"
        )
    return tensors
