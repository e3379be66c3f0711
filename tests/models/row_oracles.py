"""The per-row gradient bodies the MLP and the CNN no longer ship.

``MLPClassifier`` and ``SmallConvNet`` compute only through their
worker-blocked pass; ``loss_and_grad`` is that pass on a one-worker
block.  The per-row tapes they carried before — each model's 2-D
forward, its ``loss_and_grad`` body and the one-batch cross-entropy they
called — are kept here verbatim (as free functions taking the model) as
an independent tape for the parity tests to hold the blocked pass to:
``tests/utils/test_gradient_rows.py``, ``tests/property/test_blocked_cnn.py``
and ``tests/perf/test_vectorized_parity.py``'s ``ReferenceTrainer``.
They differ from the blocked pass only in the sign of a zero bias
gradient at batch size 1 (this body's ``_unbroadcast`` sum turns
``-0.0`` into ``+0.0``), which ``assert_array_equal`` does not see.
"""

from __future__ import annotations

import numpy as np

from repro.models.autodiff import (
    Tensor,
    _class_ids,
    _node,
    avg_pool2d,
    conv2d_cnhw,
    leaf_grads,
    leaf_tensors,
)
from repro.models.nn.convnet import SmallConvNet, _channel_major
from repro.models.nn.mlp import MLPClassifier


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy over rows of ``logits`` (labels are class ids).

    Supports ``(N, C)`` logits or ``(N, T, C)`` sequence logits with
    ``(N, T)`` labels; label id < 0 marks padding (ignored).
    """
    data = logits.data
    flat_labels = _class_ids("softmax_cross_entropy", labels, data.shape)
    flat_logits = data.reshape(-1, data.shape[-1])
    valid = flat_labels >= 0
    count = max(1, int(valid.sum()))
    shifted = flat_logits - flat_logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    rows = np.arange(flat_labels.size)
    picked = np.where(valid, log_probs[rows, np.where(valid, flat_labels, 0)], 0.0)
    loss_value = -picked.sum() / count
    probs = np.exp(log_probs)

    def backward(grad) -> None:
        g = float(np.asarray(grad))
        dlogits = probs.copy()
        dlogits[rows[valid], flat_labels[valid]] -= 1.0
        dlogits[~valid] = 0.0
        dlogits *= g / count
        logits._accumulate(dlogits.reshape(data.shape), owned=True)

    return _node(np.asarray(loss_value), (logits,), backward)


# -- MLPClassifier -------------------------------------------------------------


def _mlp_batch(params: dict[str, np.ndarray], x: np.ndarray) -> np.ndarray:
    """``x`` flattened per sample, in the parameters' dtype."""
    x = np.asarray(x, dtype=params["fc0.weight"].dtype)
    return x.reshape(len(x), -1)


def mlp_logits(model: MLPClassifier, params: dict[str, Tensor], x: Tensor) -> Tensor:
    h = x
    n_layers = len(model.hidden) + 1
    for i in range(n_layers):
        h = h @ params[f"fc{i}.weight"] + params[f"fc{i}.bias"]
        if i < n_layers - 1:
            h = h.relu()
    return h


def mlp_loss_and_grad(model: MLPClassifier, params, x, y, out=None):
    """Forward + backward on one mini-batch (``out``: gradient
    destinations, see :class:`~repro.train.trainer.TrainableModel`)."""
    tensors = leaf_tensors(params, out)
    logits = mlp_logits(model, tensors, Tensor(_mlp_batch(params, x)))
    loss = softmax_cross_entropy(logits, y)
    loss.backward()
    accuracy = float((logits.data.argmax(axis=1) == np.asarray(y)).mean())
    return float(loss.data), leaf_grads(tensors), {"accuracy": accuracy}


# -- SmallConvNet --------------------------------------------------------------


def _cnn_features_cnhw(params: dict[str, Tensor], x_cn: Tensor) -> Tensor:
    """The conv stack down to the ``(c2, n)`` global average, channel-major."""
    h = conv2d_cnhw(x_cn, params["conv1.weight"], stride=1, padding=1).relu()
    h = avg_pool2d(h, 2)
    h = conv2d_cnhw(h, params["conv2.weight"], stride=1, padding=1).relu()
    return h.mean(axis=(2, 3))


def cnn_logits_cnhw(params: dict[str, Tensor], x_cn: Tensor) -> Tensor:
    """Channel-major hot path: zero transposes through the conv stack.

    ``x_cn`` is the batch transposed to ``(c, n, h, w)``; relu and
    average pooling are layout-agnostic (spatial dims stay last), so
    the only layout handling is one tiny input transpose and the
    ``(c2, n) -> (n, c2)`` flip before the classifier head.
    """
    h = _cnn_features_cnhw(params, x_cn).transpose()
    return h @ params["fc.weight"] + params["fc.bias"]


def cnn_loss_and_grad(model: SmallConvNet, params, x, y, out=None):
    tensors = leaf_tensors(params, out)
    logits = cnn_logits_cnhw(tensors, _channel_major(x))
    loss = softmax_cross_entropy(logits, y)
    loss.backward()
    accuracy = float((logits.data.argmax(axis=1) == np.asarray(y)).mean())
    return float(loss.data), leaf_grads(tensors), {"accuracy": accuracy}


def loss_and_grad(model, params, x, y, out=None):
    """The per-row body of ``model``: the oracle above for the MLP and
    the CNN, the model's own ``loss_and_grad`` for any other."""
    if isinstance(model, MLPClassifier):
        return mlp_loss_and_grad(model, params, x, y, out)
    if isinstance(model, SmallConvNet):
        return cnn_loss_and_grad(model, params, x, y, out)
    return model.loss_and_grad(params, x, y, out)
