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


def _check_sent(sent: SparseVector, corrected: np.ndarray) -> None:
    """One ``ValueError`` line unless ``sent`` was selected from a
    ``corrected`` like this one: the same length, the same dtype."""
    if sent.length != corrected.shape[-1]:
        raise ValueError(
            f"sent length {sent.length} does not match gradient size {corrected.shape[-1]}"
        )
    if sent.values.dtype != corrected.dtype:
        raise ValueError(
            f"sent values dtype {sent.values.dtype} does not match gradient dtype "
            f"{corrected.dtype}"
        )


class ErrorFeedback:
    """Per-key residual buffers with the standard EF update rule.

    Keys are arbitrary hashables (worker rank, ``(node, gpu)`` shard
    owner, parameter name, ...).  Buffers are created lazily with the
    shape/dtype of the first gradient seen for the key, and each
    :meth:`update` rewrites the key's buffer in place: the object
    :meth:`residual` hands out is the live buffer, and changes with the
    next update.  Checkpoints copy it (``np.savez``); :meth:`replace`
    stores copies.
    """

    def __init__(self) -> None:
        self._residuals: dict[object, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._residuals)

    def keys(self):
        return self._residuals.keys()

    def residual(self, key: object) -> np.ndarray | None:
        """The live residual buffer for ``key`` (``None`` before the first
        update); the next :meth:`update` of ``key`` overwrites it."""
        return self._residuals.get(key)

    def replace(self, residuals: Mapping[object, np.ndarray]) -> None:
        """Drop every buffer and hold copies of ``residuals`` instead
        (checkpoint restore, elastic re-folding)."""
        self._residuals = {key: np.array(value) for key, value in residuals.items()}

    def apply(
        self, key: object, grad: np.ndarray, *, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Return ``grad + residual[key]``: a fresh array, or ``out``
        (which may be ``grad`` itself) when given.  The add is the same
        IEEE operation either way."""
        grad = np.asarray(grad)
        if out is not None and (out.shape != grad.shape or out.dtype != grad.dtype):
            raise ValueError(
                f"out is {out.dtype}{out.shape}, gradient {grad.dtype}{grad.shape} "
                f"for key {key!r}"
            )
        residual = self._residuals.get(key)
        if residual is None:
            if out is None:
                return grad.copy()
            np.copyto(out, grad)
            return out
        _check_fits(key, residual, grad.shape, grad.dtype)
        return np.add(grad, residual, out=out)

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
        for sent in sents:
            _check_sent(sent, corrected)
        residuals = corrected.copy()
        for row, (key, sent) in enumerate(zip(keys, sents)):
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
        ``corrected - densify(sent)``.  It is written into the key's
        existing buffer when that has ``corrected``'s shape and dtype (and
        is not ``corrected`` itself), else into a fresh one.
        """
        corrected = np.asarray(corrected)
        if corrected.ndim != 1:
            raise ValueError(f"update needs a 1-D gradient, got shape {corrected.shape}")
        _check_sent(sent, corrected)
        residual = self._residuals.get(key)
        if (
            residual is None
            or residual.shape != corrected.shape
            or residual.dtype != corrected.dtype
            or np.may_share_memory(residual, corrected)
        ):
            residual = corrected.copy()
        else:
            np.copyto(residual, corrected)
        _subtract_sent(residual, corrected, sent)
        self._residuals[key] = residual


__all__ = ["ErrorFeedback"]
