"""The per-row gradient bodies the models no longer ship.

``MLPClassifier``, ``SmallConvNet`` and ``TinyTransformer`` compute only
through their worker-blocked pass.  The per-row tapes they carried
before — each model's one-batch forward, its ``loss_and_grad`` body,
the one-batch cross-entropy they called and the Transformer's one-batch
``embedding`` / ``layer_norm`` — are kept here verbatim (as free
functions taking the model) as an independent tape for the parity tests
to hold the blocked pass to: ``tests/train/test_compute_stage.py``,
``tests/property/test_blocked_cnn.py``,
``tests/property/test_blocked_transformer.py`` and
``tests/perf/test_vectorized_parity.py``'s ``ReferenceTrainer``.
:func:`single_worker` runs one batch through a model's blocked pass, as
the tests that hold one batch's gradient do.
The MLP and the CNN differ from the blocked pass only in the sign of a
zero bias gradient at batch size 1 (this body's ``_unbroadcast`` sum
turns ``-0.0`` into ``+0.0``), which ``assert_array_equal`` does not see.
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
    softmax,
)
from repro.models.nn.convnet import SmallConvNet, _channel_major
from repro.models.nn.mlp import MLPClassifier
from repro.models.nn.transformer import TinyTransformer


def single_worker(loss_and_grad_workers, params, x, y, out=None):
    """One batch through a model's worker-blocked pass, as a one-worker
    block: ``x``, ``y`` and every destination get a leading axis of one,
    and the loss, each gradient (the destination itself where one was
    given) and the metrics come back without it."""
    out = out or {}
    dests = {name: dest[None] for name, dest in out.items()}
    losses, grads, metrics = loss_and_grad_workers(
        params, np.asarray(x)[None], np.asarray(y)[None], dests
    )
    grads = {name: out[name] if grad is dests.get(name) else grad[0] for name, grad in grads.items()}
    return float(losses[0]), grads, metrics[0]


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


# -- TinyTransformer -----------------------------------------------------------


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last axis."""
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    x_hat = (a.data - mu) * inv
    out_data = x_hat * gamma.data + beta.data
    dim = a.data.shape[-1]

    def backward(grad) -> None:
        g = np.asarray(grad)
        gamma._accumulate((g * x_hat).sum(axis=tuple(range(g.ndim - 1))), owned=True)
        beta._accumulate(g.sum(axis=tuple(range(g.ndim - 1))), owned=True)
        gx = g * gamma.data
        term1 = gx
        term2 = gx.mean(axis=-1, keepdims=True)
        term3 = x_hat * (gx * x_hat).mean(axis=-1, keepdims=True)
        a._accumulate(inv * (term1 - term2 - term3), owned=True)

    return _node(out_data, (a, gamma, beta), backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup with scatter-add backward."""
    ids = np.asarray(ids)
    out_data = table.data[ids]

    def backward(grad) -> None:
        g = np.asarray(grad)
        dtable = np.zeros_like(table.data)
        np.add.at(dtable, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))
        table._accumulate(dtable, owned=True)

    return _node(out_data, (table,), backward)


def transformer_logits(model: TinyTransformer, params: dict[str, Tensor], token_ids: np.ndarray) -> Tensor:
    token_ids = np.asarray(token_ids)
    if token_ids.shape[1] > model.max_len:
        raise ValueError(f"sequence length {token_ids.shape[1]} exceeds max_len {model.max_len}")
    h = embedding(params["embed.weight"], token_ids)
    pos = embedding(params["pos.weight"], np.arange(token_ids.shape[1]))
    h = h + pos  # broadcast over batch

    # Single-head scaled dot-product attention.
    q = h @ params["attn.wq"]
    k = h @ params["attn.wk"]
    v = h @ params["attn.wv"]
    scores = (q @ k.transpose((0, 2, 1))) * Tensor(np.asarray(1.0 / np.sqrt(model.d_model), dtype=h.data.dtype))
    attn = softmax(scores, axis=-1)
    context = (attn @ v) @ params["attn.wo"]
    h = layer_norm(h + context, params["ln1.gamma"], params["ln1.beta"])

    # Position-wise FFN.
    ff = (h @ params["ffn.w1"] + params["ffn.b1"]).relu()
    ff = ff @ params["ffn.w2"] + params["ffn.b2"]
    h = layer_norm(h + ff, params["ln2.gamma"], params["ln2.beta"])

    return h @ params["out.weight"] + params["out.bias"]


def transformer_loss_and_grad(model: TinyTransformer, params, x, y, out=None):
    """Sequence cross-entropy; ``y`` entries < 0 are padding."""
    tensors = leaf_tensors(params, out)
    logits = transformer_logits(model, tensors, x)
    loss = softmax_cross_entropy(logits, y)
    loss.backward()
    predictions = logits.data.argmax(axis=-1)
    valid = np.asarray(y) >= 0
    token_acc = float((predictions[valid] == np.asarray(y)[valid]).mean())
    return float(loss.data), leaf_grads(tensors), {"token_accuracy": token_acc}


def loss_and_grad(model, params, x, y, out=None):
    """The per-row body of ``model``, one of the oracles above."""
    if isinstance(model, MLPClassifier):
        return mlp_loss_and_grad(model, params, x, y, out)
    if isinstance(model, SmallConvNet):
        return cnn_loss_and_grad(model, params, x, y, out)
    if isinstance(model, TinyTransformer):
        return transformer_loss_and_grad(model, params, x, y, out)
    raise TypeError(f"no per-row oracle for {type(model).__name__}")
