"""A small convolutional network — the VGG stand-in for convergence runs.

conv3x3 → ReLU → avgpool2 → conv3x3 → ReLU → global average → linear.
Uses the im2col convolution of the autodiff tape; sized for 16×16-ish
synthetic images so an epoch takes well under a second.
"""

from __future__ import annotations

import numpy as np

from repro.models.autodiff import (
    Tensor,
    avg_pool2d,
    conv2d,
    conv2d_cnhw,
    leaf_grads,
    leaf_tensors,
    legacy_kernels_active,
    softmax_cross_entropy,
)
from repro.utils.seeding import RandomState


class SmallConvNet:
    """Two-conv classifier over NCHW inputs."""

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

    def logits(self, params: dict[str, Tensor], x: Tensor) -> Tensor:
        h = conv2d(x, params["conv1.weight"], stride=1, padding=1).relu()
        h = avg_pool2d(h, 2)
        h = conv2d(h, params["conv2.weight"], stride=1, padding=1).relu()
        # Global average pool: mean over spatial dims.
        h = h.mean(axis=(2, 3))
        return h @ params["fc.weight"] + params["fc.bias"]

    def logits_cnhw(self, params: dict[str, Tensor], x_cn: Tensor) -> Tensor:
        """Channel-major hot path: zero transposes through the conv stack.

        ``x_cn`` is the batch transposed to ``(c, n, h, w)``; relu and
        average pooling are layout-agnostic (spatial dims stay last), so
        the only layout handling is one tiny input transpose and the
        ``(c2, n) -> (n, c2)`` flip before the classifier head.
        """
        h = conv2d_cnhw(x_cn, params["conv1.weight"], stride=1, padding=1).relu()
        h = avg_pool2d(h, 2)
        h = conv2d_cnhw(h, params["conv2.weight"], stride=1, padding=1).relu()
        h = h.mean(axis=(2, 3)).transpose()
        return h @ params["fc.weight"] + params["fc.bias"]

    def loss_and_grad(
        self, params: dict[str, np.ndarray], x: np.ndarray, y: np.ndarray, out=None
    ) -> tuple[float, dict[str, np.ndarray], dict[str, float]]:
        tensors = leaf_tensors(params, out)
        if legacy_kernels_active():
            # The faithful pre-vectorisation chain (NCHW + einsum conv).
            logits = self.logits(tensors, Tensor(np.asarray(x)))
        else:
            x_cn = Tensor(
                np.ascontiguousarray(np.asarray(x).transpose(1, 0, 2, 3))
            )
            logits = self.logits_cnhw(tensors, x_cn)
        loss = softmax_cross_entropy(logits, y)
        loss.backward()
        accuracy = float((logits.data.argmax(axis=1) == np.asarray(y)).mean())
        return float(loss.data), leaf_grads(tensors), {"accuracy": accuracy}

    def evaluate(
        self, params: dict[str, np.ndarray], x: np.ndarray, y: np.ndarray, *, topk: int = 1
    ) -> float:
        tensors = {k: Tensor(v) for k, v in params.items()}
        logits = self.logits(tensors, Tensor(np.asarray(x))).data
        topk = min(topk, logits.shape[1])
        ranked = np.argsort(logits, axis=1)[:, -topk:]
        return float(np.any(ranked == np.asarray(y)[:, None], axis=1).mean())


__all__ = ["SmallConvNet"]
