"""A small convolutional network — the VGG stand-in for convergence runs.

conv3x3 → ReLU → avgpool2 → conv3x3 → ReLU → global average → linear.
Runs channel-major on the tape's one convolution, ``conv2d_cnhw``; sized
for 16×16-ish synthetic images so an epoch takes well under a second.
"""

from __future__ import annotations

import numpy as np

from repro.models.autodiff import (
    Programs,
    Tensor,
    avg_pool2d,
    contiguous,
    conv2d_cnhw,
    reshape,
    transpose,
)
from repro.utils.seeding import RandomState

#: Most bytes the largest temporary of one blocked tape pass may take —
#: the first conv's im2col, ``in_c * 9 * B * H * W * 8`` per worker;
#: :meth:`SmallConvNet.loss_and_grad_workers` runs that many workers per
#: pass (one, for one-sample batches).  The first call at a shape runs
#: the tape, whose pass holds its workers' activations at once (≈ 3.5x
#: this at the peak); later calls replay it in an arena of about that
#: peak.  ``peak_rss_mb`` pays for both: at the Fig. 10 shape (497 664 B
#: per worker, 8 workers) 1 / 2 / 3 / 4 / 8 workers per pass measured
#: 237 / 262 / 263 / 281 / ≈ 250 steps/s on ``train-compute`` (medians of
#: 3 interleaved runs; the tape before replay: 218) at −2.1 / −0.8 /
#: +1.1 / +4.5 / +19.7 % RSS against the tape's — so the bound sits
#: between 2 workers' im2col (0.95 MiB) and 3 (1.42 MiB).  ROADMAP 5(d)
#: has the table.
PASS_BYTES = 1 << 20  # 1 MiB


def _channel_major(x: np.ndarray) -> Tensor:
    """An NCHW batch as the contiguous ``(c, n, h, w)`` tape input."""
    return Tensor(contiguous(np.asarray(x).transpose(1, 0, 2, 3)))


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
        self._programs = Programs()

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

    def loss_and_grad_workers(
        self, params: dict[str, np.ndarray], xs: np.ndarray, ys: np.ndarray, out=None
    ) -> tuple[np.ndarray, dict[str, np.ndarray], list[dict[str, float]]]:
        """Forward + backward for ``W`` workers' batches, bit-identical to
        ``W`` one-worker calls (pinned by
        ``tests/property/test_blocked_cnn.py``).

        ``xs`` is ``(W, B, c, h, w)`` and ``ys`` is ``(W, B)``.  The
        workers go through the tape in consecutive passes of
        :meth:`_per_pass` workers, each writing its rows of one ``(W,
        *shape)`` gradient per parameter — the caller's destination
        (``out``) where one is given, so what is returned *is* that
        destination.  The call is recorded once per shape and replayed
        (:class:`~repro.models.autodiff.Programs`).
        """
        xs, ys = np.asarray(xs), np.asarray(ys)
        losses, grads, logits = self._programs.run(
            # A first call's transients peak at ≈ 3.5x PASS_BYTES.
            self._logits, params, xs, ys, out, per_pass=self._per_pass(xs), heap=2 * PASS_BYTES
        )
        preds = logits.argmax(axis=1).reshape(ys.shape)
        return losses, grads, [{"accuracy": float(a)} for a in (preds == ys).mean(axis=1)]

    @staticmethod
    def _per_pass(xs: np.ndarray) -> int:
        """Workers per tape pass: as many as :data:`PASS_BYTES` holds of
        the first conv's im2col (``in_c * 3 * 3 * B * H * W`` float64s
        each).  One-sample batches go one worker per pass: a ``(1, c2)``
        classifier-head operand is contiguous in both orders, so BLAS
        would see it untransposed in a one-worker pass and transposed in
        a wider one, and the two sum differently."""
        if xs.shape[1] == 1:
            return 1
        return max(1, PASS_BYTES // (xs[0].size * 9 * 8))

    def _logits(self, tensors: dict[str, Tensor], xs: np.ndarray) -> Tensor:
        """The forward over a ``(W, B, c, h, w)`` block, on leaves with a
        leading worker axis: ``(W * B, classes)`` logits, worker-major.

        Everything but the GEMMs runs once on the ``(c, W * B, h, w)``
        block, with zero transposes through the conv stack (relu and
        average pooling are layout-agnostic); the classifier head sees
        each worker's ``(B, c2)`` features as the transposed view of a
        ``(c2, B)`` column block.
        """
        workers, local = xs.shape[0], xs.shape[1]
        x_cn = _channel_major(xs.reshape(workers * local, *xs.shape[2:]))
        h = conv2d_cnhw(x_cn, tensors["conv1.weight"], stride=1, padding=1).relu()
        h = avg_pool2d(h, 2)
        h = conv2d_cnhw(h, tensors["conv2.weight"], stride=1, padding=1).relu()
        h = reshape(h.mean(axis=(2, 3)), (-1, workers, local))
        h = transpose(h, (1, 2, 0)) @ tensors["fc.weight"]
        h = h + reshape(tensors["fc.bias"], (workers, 1, self.num_classes))
        return reshape(h, (workers * local, self.num_classes))

    def evaluate(
        self, params: dict[str, np.ndarray], x: np.ndarray, y: np.ndarray, *, topk: int = 1
    ) -> float:
        # Leaves that take no gradient: the forward builds no tape.
        leaves = {name: Tensor(value[None]) for name, value in params.items()}
        logits = self._logits(leaves, np.asarray(x)[None]).data
        topk = min(topk, logits.shape[1])
        ranked = np.argsort(logits, axis=1)[:, -topk:]
        return float(np.any(ranked == np.asarray(y)[:, None], axis=1).mean())


__all__ = ["SmallConvNet"]
