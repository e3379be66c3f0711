"""MLP classifier — the ResNet-50 stand-in for convergence runs.

A two/three-hidden-layer ReLU network on flattened inputs.  At the
paper's scale the convergence claim is about the *optimizer pipeline*
(error feedback, hierarchical selection), not the architecture, so a
model that trains in seconds is the right substitution.
"""

from __future__ import annotations

import numpy as np

from repro.models.autodiff import Programs, Tensor, cast, reshape
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
        self._programs = Programs()

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

    def _logits(self, tensors: dict[str, Tensor], xs: np.ndarray) -> Tensor:
        """The forward over a ``(W, B, ...)`` block of batches, on leaves
        with a leading worker axis: ``(W * B, classes)`` logits,
        worker-major.  The batch is cast to the parameters' dtype."""
        workers, local = xs.shape[0], xs.shape[1]
        dtype = tensors["fc0.weight"].data.dtype
        h = Tensor(cast(xs, dtype).reshape(workers, local, -1))
        n_layers = len(self.hidden) + 1
        for i in range(n_layers):
            bias = tensors[f"fc{i}.bias"]
            width = bias.data.shape[-1]
            h = h @ tensors[f"fc{i}.weight"] + reshape(bias, (workers, 1, width))
            if i < n_layers - 1:
                h = h.relu()
        return reshape(h, (workers * local, self.num_classes))

    def loss_and_grad_workers(
        self, params: dict[str, np.ndarray], xs: np.ndarray, ys: np.ndarray, out=None
    ) -> tuple[np.ndarray, dict[str, np.ndarray], list[dict[str, float]]]:
        """Fused forward + backward for ``W`` workers' batches at once.

        ``xs`` is ``(W, B, ...)`` and ``ys`` is ``(W, B)`` (a label < 0 is
        padding).  Every parameter gets a worker axis as a read-only
        stride-0 view — the ``W`` workers read the one array, nothing is
        replicated (the tape never writes into a leaf's data; pinned by
        ``tests/models/test_nn_models.py``) — so the worker-batched
        matmuls produce per-worker gradients in single batched GEMMs,
        bit-identical to ``W`` one-worker calls (pinned by
        ``tests/train/test_compute_stage.py`` and the hot-path parity
        tests).  With ``out`` — ``(W, *shape)`` destinations — those
        GEMMs write each weight gradient straight into the caller's
        block.  The pass is recorded once per key and replayed
        (:class:`~repro.models.autodiff.Programs`).
        """
        losses, grads, logits = self._programs.run(self._logits, params, xs, ys, out)
        ys = np.asarray(ys)
        preds = logits.argmax(axis=1).reshape(ys.shape)
        metrics = [{"accuracy": float(a)} for a in (preds == ys).mean(axis=1)]
        return losses, grads, metrics

    def evaluate(
        self, params: dict[str, np.ndarray], x: np.ndarray, y: np.ndarray, *, topk: int = 1
    ) -> float:
        """Top-k accuracy (the paper reports top-5 for CNNs)."""
        # Leaves that take no gradient: the forward builds no tape.
        leaves = {name: Tensor(value[None]) for name, value in params.items()}
        logits = self._logits(leaves, np.asarray(x)[None]).data
        topk = min(topk, logits.shape[1])
        ranked = np.argsort(logits, axis=1)[:, -topk:]
        return float(np.any(ranked == np.asarray(y)[:, None], axis=1).mean())


__all__ = ["MLPClassifier"]
