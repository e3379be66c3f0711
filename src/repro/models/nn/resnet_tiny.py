"""A tiny residual CNN — a closer ResNet stand-in for convergence runs.

Two residual blocks (conv3x3 → ReLU → conv3x3 with identity skip),
channel-major on the tape's one convolution ``conv2d_cnhw``, followed by
global average pooling and a linear head.  Residual connections matter
for this reproduction because they change the gradient *distribution* —
skip paths make gradients flatter-tailed, which is exactly the regime
where top-k selection drops relatively more information.
"""

from __future__ import annotations

import numpy as np

from repro.models.autodiff import Tensor, conv2d_cnhw, leaf_grads, leaf_tensors, softmax_cross_entropy
from repro.utils.seeding import RandomState


class TinyResNet:
    """Residual two-block classifier: takes NCHW batches, computes channel-major."""

    def __init__(
        self,
        in_channels: int = 3,
        width: int = 8,
        num_classes: int = 10,
        image_size: int = 12,
    ) -> None:
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        self.in_channels = in_channels
        self.width = width
        self.num_classes = num_classes
        self.image_size = image_size

    def init_params(self, rng: RandomState) -> dict[str, np.ndarray]:
        w = self.width
        he = lambda fan_in: np.sqrt(2.0 / fan_in)  # noqa: E731
        params = {
            "stem.weight": rng.normal(
                0.0, he(self.in_channels * 9), size=(w, self.in_channels, 3, 3)
            ),
            "block1.conv1.weight": rng.normal(0.0, he(w * 9), size=(w, w, 3, 3)),
            "block1.conv2.weight": rng.normal(0.0, he(w * 9), size=(w, w, 3, 3)),
            "block2.conv1.weight": rng.normal(0.0, he(w * 9), size=(w, w, 3, 3)),
            "block2.conv2.weight": rng.normal(0.0, he(w * 9), size=(w, w, 3, 3)),
            "fc.weight": rng.normal(0.0, he(w), size=(w, self.num_classes)),
            "fc.bias": np.zeros(self.num_classes),
        }
        return params

    def _block(self, params: dict[str, Tensor], prefix: str, h: Tensor) -> Tensor:
        inner = conv2d_cnhw(h, params[f"{prefix}.conv1.weight"], padding=1).relu()
        inner = conv2d_cnhw(inner, params[f"{prefix}.conv2.weight"], padding=1)
        return (h + inner).relu()  # identity skip (He et al. 2016)

    def logits(self, params: dict[str, Tensor], x: Tensor) -> Tensor:
        """``x`` is an NCHW batch; the body runs on its ``(c, n, h, w)``
        transpose (relu and the skip add are layout-agnostic) and flips
        the ``(c, n)`` global average to ``(n, c)`` before the head."""
        h = conv2d_cnhw(x.transpose((1, 0, 2, 3)), params["stem.weight"], padding=1).relu()
        h = self._block(params, "block1", h)
        h = self._block(params, "block2", h)
        h = h.mean(axis=(2, 3)).transpose()  # global average pool
        return h @ params["fc.weight"] + params["fc.bias"]

    def loss_and_grad(
        self, params: dict[str, np.ndarray], x: np.ndarray, y: np.ndarray, out=None
    ) -> tuple[float, dict[str, np.ndarray], dict[str, float]]:
        tensors = leaf_tensors(params, out)
        logits = self.logits(tensors, Tensor(np.asarray(x)))
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


__all__ = ["TinyResNet"]
