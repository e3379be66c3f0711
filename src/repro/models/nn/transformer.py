"""A tiny Transformer for the translation-convergence experiment.

Single-layer single-head encoder over token ids with a per-position
output head; trained on a synthetic token-mapping task (each source
token deterministically maps to a target token, with positional
shuffling) so that *token accuracy* serves as the BLEU analogue of
paper Table 2.  All the pieces the real Transformer stresses are
present: embeddings, scaled dot-product attention, layer norm, FFN,
sequence cross-entropy with padding masks.
"""

from __future__ import annotations

import numpy as np

from repro.models.autodiff import (
    Tensor,
    embedding,
    layer_norm,
    leaf_grads,
    leaf_tensors,
    softmax,
    softmax_cross_entropy,
)
from repro.utils.seeding import RandomState


class TinyTransformer:
    """One-block encoder with a token-level output head."""

    def __init__(
        self,
        vocab_size: int = 64,
        d_model: int = 32,
        d_ff: int = 64,
        max_len: int = 16,
    ) -> None:
        if d_model % 2:
            raise ValueError(f"d_model must be even, got {d_model}")
        self.vocab_size = vocab_size
        self.d_model = d_model
        self.d_ff = d_ff
        self.max_len = max_len

    def init_params(self, rng: RandomState) -> dict[str, np.ndarray]:
        d, f, v = self.d_model, self.d_ff, self.vocab_size
        scale = 1.0 / np.sqrt(d)
        params = {
            "embed.weight": rng.normal(0.0, 0.02, size=(v, d)),
            "pos.weight": rng.normal(0.0, 0.02, size=(self.max_len, d)),
            "attn.wq": rng.normal(0.0, scale, size=(d, d)),
            "attn.wk": rng.normal(0.0, scale, size=(d, d)),
            "attn.wv": rng.normal(0.0, scale, size=(d, d)),
            "attn.wo": rng.normal(0.0, scale, size=(d, d)),
            "ln1.gamma": np.ones(d),
            "ln1.beta": np.zeros(d),
            "ffn.w1": rng.normal(0.0, np.sqrt(2.0 / d), size=(d, f)),
            "ffn.b1": np.zeros(f),
            "ffn.w2": rng.normal(0.0, np.sqrt(2.0 / f), size=(f, d)),
            "ffn.b2": np.zeros(d),
            "ln2.gamma": np.ones(d),
            "ln2.beta": np.zeros(d),
            "out.weight": rng.normal(0.0, scale, size=(d, v)),
            "out.bias": np.zeros(v),
        }
        return params

    def logits(self, params: dict[str, Tensor], token_ids: np.ndarray) -> Tensor:
        token_ids = np.asarray(token_ids)
        if token_ids.shape[1] > self.max_len:
            raise ValueError(
                f"sequence length {token_ids.shape[1]} exceeds max_len {self.max_len}"
            )
        h = embedding(params["embed.weight"], token_ids)
        pos = embedding(
            params["pos.weight"], np.arange(token_ids.shape[1])
        )
        h = h + pos  # broadcast over batch

        # Single-head scaled dot-product attention.
        q = h @ params["attn.wq"]
        k = h @ params["attn.wk"]
        v = h @ params["attn.wv"]
        scores = (q @ k.transpose((0, 2, 1))) * (1.0 / np.sqrt(self.d_model))
        attn = softmax(scores, axis=-1)
        context = (attn @ v) @ params["attn.wo"]
        h = layer_norm(h + context, params["ln1.gamma"], params["ln1.beta"])

        # Position-wise FFN.
        ff = (h @ params["ffn.w1"] + params["ffn.b1"]).relu()
        ff = ff @ params["ffn.w2"] + params["ffn.b2"]
        h = layer_norm(h + ff, params["ln2.gamma"], params["ln2.beta"])

        return h @ params["out.weight"] + params["out.bias"]

    def loss_and_grad(
        self, params: dict[str, np.ndarray], x: np.ndarray, y: np.ndarray, out=None
    ) -> tuple[float, dict[str, np.ndarray], dict[str, float]]:
        """Sequence cross-entropy; ``y`` entries < 0 are padding."""
        tensors = leaf_tensors(params, out)
        logits = self.logits(tensors, x)
        loss = softmax_cross_entropy(logits, y)
        loss.backward()
        predictions = logits.data.argmax(axis=-1)
        valid = np.asarray(y) >= 0
        token_acc = float((predictions[valid] == np.asarray(y)[valid]).mean())
        return float(loss.data), leaf_grads(tensors), {"token_accuracy": token_acc}

    def evaluate(
        self, params: dict[str, np.ndarray], x: np.ndarray, y: np.ndarray
    ) -> float:
        """Token accuracy — the BLEU proxy for Table 2."""
        tensors = {k: Tensor(v) for k, v in params.items()}
        logits = self.logits(tensors, x).data
        predictions = logits.argmax(axis=-1)
        valid = np.asarray(y) >= 0
        return float((predictions[valid] == np.asarray(y)[valid]).mean())


def make_copy_task(
    rng: RandomState,
    *,
    num_samples: int,
    vocab_size: int = 64,
    seq_len: int = 12,
    shift: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic 'translation': target token = permuted *neighbour* token.

    ``y[i] = mapping[x[(i + shift) % L]]`` — the vocabulary permutation
    needs the embeddings/output head, and the positional shift needs the
    attention layer (a bag-of-tokens model cannot solve it), so the task
    genuinely exercises the Transformer; convergence behaviour under
    sparsified gradients mirrors the real seq2seq task at this scale.
    """
    if not 0 <= shift < seq_len:
        raise ValueError(f"shift must be in [0, seq_len), got {shift}")
    mapping = rng.permutation(vocab_size)
    x = rng.integers(1, vocab_size, size=(num_samples, seq_len))
    y = mapping[np.roll(x, -shift, axis=1)]
    return x, y


__all__ = ["TinyTransformer", "make_copy_task"]
