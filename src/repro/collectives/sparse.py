"""Sparse vectors and the sparse All-Gather aggregation.

Top-k sparsification makes indices differ across workers, so the values
"cannot be aggregated through the All-Reduce collective.  The efficient
way is to use two All-Gather operations to aggregate the values and
indices respectively" (paper §3.2, citing SparCML).  This module provides
the sparse container and the scatter-add that aggregation ends in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class SparseVector:
    """A sparse view of a length-``length`` dense vector.

    ``values[i]`` lives at position ``indices[i]``.  Indices may contain
    duplicates until :func:`coalesce` is applied (duplicates arise when
    accumulating selections from several workers).
    """

    values: np.ndarray
    indices: np.ndarray
    length: int

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        indices = np.asarray(self.indices)
        if values.ndim != 1 or indices.ndim != 1:
            raise ValueError("values and indices must be 1-D")
        if values.shape != indices.shape:
            raise ValueError(
                f"values ({values.shape}) and indices ({indices.shape}) must align"
            )
        if self.length < 0:
            raise ValueError(f"length must be non-negative, got {self.length}")
        if indices.size and (indices.min() < 0 or indices.max() >= self.length):
            raise ValueError("indices out of range for declared length")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "indices", indices.astype(np.int64, copy=False))

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def to_dense(self) -> np.ndarray:
        """Densify, accumulating duplicate indices (scatter-add)."""
        dense = np.zeros(self.length, dtype=self.values.dtype)
        np.add.at(dense, self.indices, self.values)
        return dense

    def shifted(self, offset: int, new_length: int) -> "SparseVector":
        """Re-base indices by ``offset`` into a longer vector.

        Used when a shard-local selection (Algorithm 2 step 2) is mapped
        back into the full gradient's coordinate space.
        """
        return SparseVector(self.values, self.indices + offset, new_length)


def coalesce(vec: SparseVector) -> SparseVector:
    """Merge duplicate indices by summation; output indices are sorted."""
    if vec.nnz == 0:
        return vec
    order = np.argsort(vec.indices, kind="stable")
    idx = vec.indices[order]
    vals = vec.values[order]
    unique_idx, inverse = np.unique(idx, return_inverse=True)
    summed = np.zeros(unique_idx.size, dtype=vals.dtype)
    np.add.at(summed, inverse, vals)
    return SparseVector(summed, unique_idx, vec.length)


def batched_scatter_add(
    vectors: Sequence[SparseVector],
    length: int,
    *,
    dtype=None,
    offsets: Sequence[int] | None = None,
) -> np.ndarray:
    """Accumulate many sparse contributions into one dense buffer.

    One ``np.add.at`` over the concatenated (values, indices) pairs
    replaces a Python loop of per-vector scatter-adds.  ``np.add.at``
    applies additions in index-array order, and concatenation preserves
    per-vector order, so the per-coordinate accumulation order — and
    therefore every floating-point bit — matches the sequential loop.

    ``offsets`` optionally re-bases vector ``i``'s shard-local indices
    by ``offsets[i]`` (Algorithm 2 step 3: per-stream shard selections
    land in the full gradient's coordinate space).
    """
    if not vectors:
        raise ValueError("batched_scatter_add: empty contribution list")
    if offsets is not None and len(offsets) != len(vectors):
        raise ValueError(
            f"batched_scatter_add: {len(vectors)} vectors but {len(offsets)} offsets"
        )
    dense = np.zeros(length, dtype=vectors[0].values.dtype if dtype is None else dtype)
    if offsets is None:
        indices = np.concatenate([v.indices for v in vectors])
    else:
        indices = np.concatenate(
            [v.indices + off for v, off in zip(vectors, offsets)]
        )
    values = np.concatenate([v.values for v in vectors])
    if indices.size and (indices.min() < 0 or indices.max() >= length):
        raise ValueError("batched_scatter_add: indices out of range")
    np.add.at(dense, indices, values)
    return dense


__all__ = [
    "SparseVector",
    "coalesce",
    "batched_scatter_add",
]
