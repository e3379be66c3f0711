"""Compressor interfaces shared by all selection operators."""

from __future__ import annotations

import abc

import numpy as np

from repro.collectives.sparse import SparseVector
from repro.utils.seeding import RandomState


def density_to_k(d: int, density: float) -> int:
    """Number of elements kept for a sparsity ``density`` ρ (paper: k = ρ·d).

    Always at least 1 so a non-empty gradient contributes something.
    """
    if d < 0:
        raise ValueError(f"dimension must be non-negative, got {d}")
    if not 0 < density <= 1:
        raise ValueError(f"density must be in (0, 1], got {density}")
    if d == 0:
        return 0
    return max(1, int(round(density * d)))


class TopKCompressor(abc.ABC):
    """Selects ``k`` entries of a vector by (approximate) magnitude.

    Implementations must return *exactly* ``k`` entries — Algorithm 2's
    All-Gather exchanges fixed-size buffers, so "approximately k" outputs
    (as in RedSync-style samplers, paper §6) would force variable-length
    communication.  This exactness is property-tested.
    """

    #: Short name used in benchmark tables.
    name: str = "topk"

    @abc.abstractmethod
    def select(
        self, x: np.ndarray, k: int, *, rng: RandomState | None = None
    ) -> SparseVector:
        """Return a :class:`SparseVector` with ``k`` selected entries of ``x``."""

    def select_batch(
        self,
        xs,
        ks,
        *,
        rng: RandomState | None = None,
    ) -> list[SparseVector]:
        """Select on many shards at once; shard ``i`` keeps ``ks[i]`` entries.

        ``xs`` is a sequence of 1-D arrays or a 2-D ``(n_shards, d)``
        matrix (rows are shards); ``ks`` is one ``k`` for all shards or a
        per-shard sequence.  The base implementation loops over
        :meth:`select` in shard order, so any compressor is batchable
        with an identical ``rng`` stream; vectorised operators (MSTopK,
        exact top-k) override this to run their counting passes over all
        shards at once.
        """
        rows, ks = self._validate_batch(xs, ks)
        return [self.select(x, k, rng=rng) for x, k in zip(rows, ks)]

    @staticmethod
    def _validate(x: np.ndarray, k: int) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim != 1:
            raise ValueError(f"input must be 1-D, got shape {x.shape}")
        if not 0 <= k <= x.size:
            raise ValueError(f"k={k} out of range for vector of size {x.size}")
        return x

    @staticmethod
    def _validate_batch(xs, ks) -> tuple[list[np.ndarray], list[int]]:
        """Normalise batch inputs to (list of 1-D rows, list of ks)."""
        if isinstance(xs, np.ndarray) and xs.ndim == 2:
            rows = list(xs)
        else:
            rows = [np.asarray(x) for x in xs]
        if isinstance(ks, (int, np.integer)):
            ks = [int(ks)] * len(rows)
        else:
            ks = [int(k) for k in ks]
        if len(rows) != len(ks):
            raise ValueError(f"{len(rows)} shards but {len(ks)} k values")
        for i, (x, k) in enumerate(zip(rows, ks)):
            if x.ndim != 1:
                raise ValueError(f"shard {i} must be 1-D, got shape {x.shape}")
            if not 0 <= k <= x.size:
                raise ValueError(f"k={k} out of range for shard {i} of size {x.size}")
        return rows, ks

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


__all__ = ["TopKCompressor", "density_to_k"]
