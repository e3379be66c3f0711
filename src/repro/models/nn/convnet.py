"""A small convolutional network — the VGG stand-in for convergence runs.

conv3x3 → ReLU → avgpool2 → conv3x3 → ReLU → global average → linear.
Runs channel-major on the tape's one convolution, ``conv2d_cnhw``; sized
for 16×16-ish synthetic images so an epoch takes well under a second.
"""

from __future__ import annotations

import numpy as np

from repro.models.autodiff import (
    Tensor,
    avg_pool2d,
    conv2d_cnhw,
    leaf_grads,
    leaf_tensors,
    reshape,
    softmax_cross_entropy,
    softmax_cross_entropy_workers,
    transpose,
)
from repro.utils.seeding import RandomState

#: Most bytes the largest temporary of one blocked tape pass may take —
#: the first conv's im2col, ``in_c * 9 * B * H * W * 8`` per worker;
#: :meth:`SmallConvNet.loss_and_grad_workers` runs that many workers per
#: pass.  A pass holds its workers' activations at once (≈ 3.5x this at
#: the peak), which ``peak_rss_mb`` pays for: at the Fig. 10 shape
#: (497 664 B per worker, 8 workers) 1 / 2 / 3 / 4 / 8 workers per pass
#: measured 129 / 168 / 181 / 198 / 211 steps/s on ``train-compute``
#: against 151 for eight per-row calls, at +1 / +4 / +8 / +12 / +26 % RSS
#: against a 10 % bound — so the bound sits between 3 workers' im2col
#: (1.42 MiB) and 4 (1.90 MiB).  ROADMAP 5(d) has the table.
PASS_BYTES = 3 << 19  # 1.5 MiB


def _channel_major(x: np.ndarray) -> Tensor:
    """An NCHW batch as the contiguous ``(c, n, h, w)`` tape input."""
    return Tensor(np.ascontiguousarray(np.asarray(x).transpose(1, 0, 2, 3)))


class SmallConvNet:
    """Two-conv classifier: takes NCHW batches, computes channel-major."""

    def __init__(
        self,
        in_channels: int = 3,
        channels: tuple[int, int] = (8, 16),
        num_classes: int = 10,
        image_size: int = 16,
    ) -> None:
        if image_size % 2:
            raise ValueError(f"image_size must be even, got {image_size}")
        self.in_channels = in_channels
        self.channels = channels
        self.num_classes = num_classes
        self.image_size = image_size

    def init_params(self, rng: RandomState) -> dict[str, np.ndarray]:
        c1, c2 = self.channels
        params = {
            "conv1.weight": rng.normal(
                0.0, np.sqrt(2.0 / (self.in_channels * 9)), size=(c1, self.in_channels, 3, 3)
            ),
            "conv2.weight": rng.normal(0.0, np.sqrt(2.0 / (c1 * 9)), size=(c2, c1, 3, 3)),
            "fc.weight": rng.normal(0.0, np.sqrt(2.0 / c2), size=(c2, self.num_classes)),
            "fc.bias": np.zeros(self.num_classes),
        }
        return params

    def _features_cnhw(self, params: dict[str, Tensor], x_cn: Tensor) -> Tensor:
        """The conv stack down to the ``(c2, n)`` global average, channel-major."""
        h = conv2d_cnhw(x_cn, params["conv1.weight"], stride=1, padding=1).relu()
        h = avg_pool2d(h, 2)
        h = conv2d_cnhw(h, params["conv2.weight"], stride=1, padding=1).relu()
        return h.mean(axis=(2, 3))

    def logits_cnhw(self, params: dict[str, Tensor], x_cn: Tensor) -> Tensor:
        """Channel-major hot path: zero transposes through the conv stack.

        ``x_cn`` is the batch transposed to ``(c, n, h, w)``; relu and
        average pooling are layout-agnostic (spatial dims stay last), so
        the only layout handling is one tiny input transpose and the
        ``(c2, n) -> (n, c2)`` flip before the classifier head.
        """
        h = self._features_cnhw(params, x_cn).transpose()
        return h @ params["fc.weight"] + params["fc.bias"]

    def loss_and_grad(
        self, params: dict[str, np.ndarray], x: np.ndarray, y: np.ndarray, out=None
    ) -> tuple[float, dict[str, np.ndarray], dict[str, float]]:
        tensors = leaf_tensors(params, out)
        logits = self.logits_cnhw(tensors, _channel_major(x))
        loss = softmax_cross_entropy(logits, y)
        loss.backward()
        accuracy = float((logits.data.argmax(axis=1) == np.asarray(y)).mean())
        return float(loss.data), leaf_grads(tensors), {"accuracy": accuracy}

    def loss_and_grad_workers(
        self, params: dict[str, np.ndarray], xs: np.ndarray, ys: np.ndarray, out=None
    ) -> tuple[np.ndarray, dict[str, np.ndarray], list[dict[str, float]]]:
        """Forward + backward for ``W`` workers' batches, bit-identical to
        ``W`` :meth:`loss_and_grad` calls (pinned by
        ``tests/property/test_blocked_cnn.py``).

        ``xs`` is ``(W, B, c, h, w)`` and ``ys`` is ``(W, B)``.  The
        workers go through :meth:`_blocked_pass` in consecutive
        sub-blocks sized by :data:`PASS_BYTES`, each writing its rows of
        one ``(W, *shape)`` gradient per parameter — the caller's
        destination (``out``) where one is given, so what is returned
        *is* that destination.  One-sample batches take the per-row body:
        a ``(1, c2)`` classifier-head operand is contiguous in both
        orders, so BLAS would see it untransposed there and transposed
        in the block, and the two sum differently.
        """
        # Allocated and freed at once, no page of it touched.  glibc serves a
        # block from the heap up to a threshold, and keeps up to twice that of
        # freed heap, where the threshold follows the largest mmapped block
        # the process has *freed*.  A pass's largest block is PASS_BYTES and
        # its transients peak at ≈ 3.5x that; until the threshold is 2x, every
        # pass maps, faults in and returns its ≈ 5 MB (≈ 3 000 page faults a
        # step, 1.7x the time of the per-row calls) — and a trainer that keeps
        # its dataset alive has freed nothing that large.  A no-op elsewhere.
        np.empty(2 * PASS_BYTES, dtype=np.uint8)
        xs, ys = np.asarray(xs), np.asarray(ys)
        workers, local = xs.shape[0], xs.shape[1]
        out = out or {}
        grads = {
            name: out[name] if name in out else np.empty((workers, *value.shape), value.dtype)
            for name, value in params.items()
        }
        losses = np.empty(workers)
        metrics: list[dict[str, float]] = []
        if local == 1:
            for row in range(workers):
                dest = {name: grad[row] for name, grad in grads.items()}
                losses[row], _, row_metrics = self.loss_and_grad(params, xs[row], ys[row], dest)
                metrics.append(row_metrics)
            return losses, grads, metrics
        # The first conv's im2col per worker: in_c * 3 * 3 * B * H * W float64s.
        per_pass = max(1, PASS_BYTES // (xs[0].size * 9 * 8))
        for lo in range(0, workers, per_pass):
            rows = slice(lo, lo + per_pass)
            dest = {name: grad[rows] for name, grad in grads.items()}
            losses[rows], pass_metrics = self._blocked_pass(params, xs[rows], ys[rows], dest)
            metrics.extend(pass_metrics)
        return losses, grads, metrics

    def _blocked_pass(self, params, xs, ys, out) -> tuple[np.ndarray, list[dict[str, float]]]:
        """One tape pass over a ``(W, B, c, h, w)`` block into ``out``.

        Everything but the GEMMs runs once on the ``(c, W * B, h, w)``
        block; the classifier head sees each worker's ``(B, c2)``
        features in the per-row call's orientation (the transposed view
        of a ``(c2, B)`` column block).
        """
        workers, local = xs.shape[0], xs.shape[1]
        tensors = leaf_tensors(params, out, workers)
        x_cn = _channel_major(xs.reshape(workers * local, *xs.shape[2:]))
        h = reshape(self._features_cnhw(tensors, x_cn), (-1, workers, local))
        h = transpose(h, (1, 2, 0)) @ tensors["fc.weight"]
        h = h + reshape(tensors["fc.bias"], (workers, 1, self.num_classes))
        logits = reshape(h, (workers * local, self.num_classes))
        loss, losses = softmax_cross_entropy_workers(logits, ys.reshape(-1), workers)
        loss.backward()
        preds = logits.data.argmax(axis=1).reshape(workers, local)
        return losses, [{"accuracy": float(a)} for a in (preds == ys).mean(axis=1)]

    def evaluate(
        self, params: dict[str, np.ndarray], x: np.ndarray, y: np.ndarray, *, topk: int = 1
    ) -> float:
        tensors = {k: Tensor(v) for k, v in params.items()}
        logits = self.logits_cnhw(tensors, _channel_major(x)).data
        topk = min(topk, logits.shape[1])
        ranked = np.argsort(logits, axis=1)[:, -topk:]
        return float(np.any(ranked == np.asarray(y)[:, None], axis=1).mean())


__all__ = ["SmallConvNet"]
