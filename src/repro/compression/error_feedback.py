"""Error feedback (residual memory) for sparsified SGD.

Top-k sparsification drops most coordinates each step; without
compensation the dropped mass is lost and convergence degrades badly.
The standard fix (Stich et al. 2018, "Sparsified SGD with memory";
Karimireddy et al. 2019) accumulates the un-transmitted residual locally
and adds it back before the next selection.  The paper's convergence
results (Fig. 10, Table 2) rely on this mechanism — TopK-SGD and
MSTopK-SGD track Dense-SGD within a fraction of a percent.

Two deployment points exist in this reproduction:

* **Flat TopK-SGD** — one residual of size ``d`` per worker, applied to
  the local gradient before selection (this module).
* **Hierarchical MSTopK-SGD** — one residual of size ``d/n`` per GPU,
  applied to the *node-reduced shard* after Algorithm 2's
  reduce-scatter (owned by :class:`repro.comm.hitopkcomm.HiTopKComm`,
  which also uses this class, keyed by shard).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.collectives.sparse import SparseVector


def _subtract_sent(
    residual: np.ndarray, corrected: np.ndarray, sent: SparseVector
) -> None:
    """Turn ``residual`` (holding ``corrected``) into ``corrected - densify(sent)``.

    Only the transmitted coordinates are touched: zeroed, the sent
    values subtracted (``ufunc.at`` accumulates duplicate indices like
    ``to_dense``), the local value added back.  For a top-k selection
    that is ``-v + v``, an exact zero; where the transmitted value
    differs from the local one (scaled random-k) the difference stays,
    bit for bit ``corrected[i] - v`` (IEEE ``a - b`` is ``-b + a``).
    """
    indices = sent.indices
    residual[indices] = 0.0
    np.subtract.at(residual, indices, sent.values)
    residual[indices] += corrected[indices]


def _check_fits(key: object, residual: np.ndarray, shape: tuple, dtype: np.dtype) -> None:
    """One ``ValueError`` line unless ``residual`` has the gradient's
    shape and dtype — adding it would broadcast, or silently cast."""
    for what, have, want in (("shape", residual.shape, shape), ("dtype", residual.dtype, dtype)):
        if have != want:
            raise ValueError(
                f"residual {what} {have} does not match gradient {what} {want} for key {key!r}"
            )


class ErrorFeedback:
    """Per-key residual buffers with the standard EF update rule.

    Keys are arbitrary hashables (worker rank, ``(node, gpu)`` shard
    owner, parameter name, ...).  Buffers are created lazily with the
    shape/dtype of the first gradient seen for the key.
    """

    def __init__(self) -> None:
        self._residuals: dict[object, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._residuals)

    def keys(self):
        return self._residuals.keys()

    def residual(self, key: object) -> np.ndarray | None:
        """Current residual for ``key`` (``None`` before first update)."""
        return self._residuals.get(key)

    def replace(self, residuals: Mapping[object, np.ndarray]) -> None:
        """Drop every buffer and hold copies of ``residuals`` instead
        (checkpoint restore, elastic re-folding)."""
        self._residuals = {key: np.array(value) for key, value in residuals.items()}

    def apply(self, key: object, grad: np.ndarray) -> np.ndarray:
        """Return ``grad + residual[key]`` (fresh array; grad unmodified)."""
        grad = np.asarray(grad)
        residual = self._residuals.get(key)
        if residual is None:
            return grad.copy()
        _check_fits(key, residual, grad.shape, grad.dtype)
        return grad + residual

    def apply_batch(self, keys, mat: np.ndarray) -> np.ndarray:
        """Batched :meth:`apply`: ``mat`` is ``(n, d)`` with row ``i``
        keyed by ``keys[i]``.  Returns a fresh corrected matrix; rows
        without a residual are plain copies, matching the scalar path
        bit for bit (``grad + residual`` is the identical IEEE add).
        """
        mat = np.asarray(mat)
        keys = list(keys)
        if mat.ndim != 2 or mat.shape[0] != len(keys):
            raise ValueError(
                f"apply_batch needs a ({len(keys)}, d) matrix, got shape {mat.shape}"
            )
        corrected = mat.copy()
        for row, key in enumerate(keys):
            residual = self._residuals.get(key)
            if residual is None:
                continue
            _check_fits(key, residual, mat.shape[1:], mat.dtype)
            corrected[row] += residual
        return corrected

    def update_batch(
        self, keys, corrected: np.ndarray, sents: Sequence[SparseVector]
    ) -> None:
        """Batched :meth:`update` over the rows of ``corrected``.

        One fused matrix copy replaces the per-key ``corrected.copy()``
        calls; the per-row transmitted-coordinate zeroing follows the
        exact operation sequence of the scalar update, so the stored
        residuals are bit-identical.  Keys are inserted in row order
        (the order the sequential loop would have used).
        """
        corrected = np.asarray(corrected)
        keys = list(keys)
        if corrected.ndim != 2 or corrected.shape[0] != len(keys):
            raise ValueError(
                f"update_batch needs a ({len(keys)}, d) matrix, got shape "
                f"{corrected.shape}"
            )
        if len(sents) != len(keys):
            raise ValueError(f"{len(keys)} keys but {len(sents)} selections")
        residuals = corrected.copy()
        for row, (key, sent) in enumerate(zip(keys, sents)):
            if sent.length != corrected.shape[1]:
                raise ValueError(
                    f"sent length {sent.length} does not match gradient size "
                    f"{corrected.shape[1]}"
                )
            residual = residuals[row]
            _subtract_sent(residual, corrected[row], sent)
            self._residuals[key] = residual

    def update(self, key: object, corrected: np.ndarray, sent: SparseVector) -> None:
        """Store the un-transmitted part of ``corrected`` as the new residual.

        ``corrected`` is the error-compensated gradient (output of
        :meth:`apply`); ``sent`` is what the compressor transmitted.  The
        residual is ``corrected`` with the transmitted coordinates zeroed
        — for top-k selections the transmitted value equals the corrected
        value at those coordinates, so this is exactly
        ``corrected - densify(sent)``.
        """
        corrected = np.asarray(corrected)
        if sent.length != corrected.size:
            raise ValueError(
                f"sent length {sent.length} does not match gradient size {corrected.size}"
            )
        residual = corrected.copy()
        _subtract_sent(residual, corrected, sent)
        self._residuals[key] = residual

    def reset(self, key: object | None = None) -> None:
        """Clear one residual or all of them."""
        if key is None:
            self._residuals.clear()
        else:
            self._residuals.pop(key, None)

    def total_norm(self) -> float:
        """L2 norm of all residual mass (diagnostic; bounded for top-k EF)."""
        if not self._residuals:
            return 0.0
        return float(
            np.sqrt(sum(float(np.sum(r * r)) for r in self._residuals.values()))
        )


__all__ = ["ErrorFeedback"]
