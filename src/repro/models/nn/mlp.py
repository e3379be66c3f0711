"""MLP classifier — the ResNet-50 stand-in for convergence runs.

A two/three-hidden-layer ReLU network on flattened inputs.  At the
paper's scale the convergence claim is about the *optimizer pipeline*
(error feedback, hierarchical selection), not the architecture, so a
model that trains in seconds is the right substitution.
"""

from __future__ import annotations

import numpy as np

from repro.models.autodiff import (
    Tensor,
    leaf_grads,
    leaf_tensors,
    reshape,
    softmax_cross_entropy,
    softmax_cross_entropy_workers,
)
from repro.utils.seeding import RandomState


class MLPClassifier:
    """Fully connected ReLU classifier.

    Parameters
    ----------
    input_dim:
        Flattened input dimensionality.
    hidden:
        Hidden layer widths.
    num_classes:
        Output classes.

    The parameters are :attr:`dtype`, and every entry point casts its
    input batch to the dtype of the parameters it is given — a float64
    batch would otherwise promote the whole tape — so that dtype is what
    the tape, the trainer's fusion buffer, error feedback, the
    collectives and the optimizer all run in.
    """

    #: The dtype :meth:`init_params` builds: float32, as the paper trains
    #: in reduced precision, and the MLP's step is memory-bound.
    dtype = np.float32

    def __init__(
        self, input_dim: int, hidden: tuple[int, ...] = (64, 64), num_classes: int = 10
    ) -> None:
        if input_dim < 1 or num_classes < 2:
            raise ValueError("input_dim must be >= 1 and num_classes >= 2")
        self.input_dim = input_dim
        self.hidden = tuple(hidden)
        self.num_classes = num_classes

    def init_params(self, rng: RandomState) -> dict[str, np.ndarray]:
        """He-initialised weights; zero biases."""
        params: dict[str, np.ndarray] = {}
        dims = [self.input_dim, *self.hidden, self.num_classes]
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            scale = np.sqrt(2.0 / fan_in)
            weight = rng.normal(0.0, scale, size=(fan_in, fan_out))
            params[f"fc{i}.weight"] = weight.astype(self.dtype, copy=False)
            params[f"fc{i}.bias"] = np.zeros(fan_out, dtype=self.dtype)
        return params

    @staticmethod
    def _batch(params: dict[str, np.ndarray], x: np.ndarray) -> np.ndarray:
        """``x`` flattened per sample, in the parameters' dtype."""
        x = np.asarray(x, dtype=params["fc0.weight"].dtype)
        return x.reshape(len(x), -1)

    def logits(self, params: dict[str, Tensor], x: Tensor) -> Tensor:
        h = x
        n_layers = len(self.hidden) + 1
        for i in range(n_layers):
            h = h @ params[f"fc{i}.weight"] + params[f"fc{i}.bias"]
            if i < n_layers - 1:
                h = h.relu()
        return h

    def loss_and_grad(
        self, params: dict[str, np.ndarray], x: np.ndarray, y: np.ndarray, out=None
    ) -> tuple[float, dict[str, np.ndarray], dict[str, float]]:
        """Forward + backward on one mini-batch (``out``: gradient
        destinations, see :class:`~repro.train.trainer.TrainableModel`)."""
        tensors = leaf_tensors(params, out)
        logits = self.logits(tensors, Tensor(self._batch(params, x)))
        loss = softmax_cross_entropy(logits, y)
        loss.backward()
        accuracy = float((logits.data.argmax(axis=1) == np.asarray(y)).mean())
        return float(loss.data), leaf_grads(tensors), {"accuracy": accuracy}

    def loss_and_grad_workers(
        self, params: dict[str, np.ndarray], xs: np.ndarray, ys: np.ndarray, out=None
    ) -> tuple[np.ndarray, dict[str, np.ndarray], list[dict[str, float]]]:
        """Fused forward + backward for ``W`` workers' batches at once.

        ``xs`` is ``(W, B, ...)`` and ``ys`` is ``(W, B)``.  Every
        parameter gets a worker axis as a read-only stride-0 view — the
        ``W`` workers read the one array, nothing is replicated (the
        tape never writes into a leaf's data; pinned by
        ``tests/models/test_nn_models.py``) — so the worker-batched
        matmuls produce per-worker gradients in single batched GEMMs,
        bit-identical to ``W`` sequential :meth:`loss_and_grad` calls
        (pinned by ``tests/utils/test_gradient_rows.py`` and the hot-path
        parity tests).  With ``out`` — ``(W, *shape)`` destinations —
        those GEMMs write each weight gradient straight into the
        caller's block.
        """
        ys = np.asarray(ys)
        workers, local = ys.shape[0], ys.shape[1]
        tensors = leaf_tensors(params, out, workers)
        h = Tensor(self._batch(params, xs).reshape(workers, local, -1))
        n_layers = len(self.hidden) + 1
        for i in range(n_layers):
            bias = tensors[f"fc{i}.bias"]
            width = bias.data.shape[-1]
            h = h @ tensors[f"fc{i}.weight"] + reshape(bias, (workers, 1, width))
            if i < n_layers - 1:
                h = h.relu()
        logits = reshape(h, (workers * local, self.num_classes))
        loss, losses = softmax_cross_entropy_workers(logits, ys.reshape(-1), workers)
        loss.backward()
        preds = logits.data.argmax(axis=1).reshape(workers, local)
        accuracy = (preds == ys).mean(axis=1)
        metrics = [{"accuracy": float(a)} for a in accuracy]
        return losses, leaf_grads(tensors), metrics

    def evaluate(
        self, params: dict[str, np.ndarray], x: np.ndarray, y: np.ndarray, *, topk: int = 1
    ) -> float:
        """Top-k accuracy (the paper reports top-5 for CNNs)."""
        tensors = {k: Tensor(v) for k, v in params.items()}
        logits = self.logits(tensors, Tensor(self._batch(params, x))).data
        topk = min(topk, logits.shape[1])
        ranked = np.argsort(logits, axis=1)[:, -topk:]
        return float(np.any(ranked == np.asarray(y)[:, None], axis=1).mean())


__all__ = ["MLPClassifier"]
