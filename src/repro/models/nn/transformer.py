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

from repro.models.autodiff import Programs, Tensor, embedding, layer_norm, reshape, softmax
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
        self._programs = Programs()

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

    def _logits(self, tensors: dict[str, Tensor], token_ids: np.ndarray) -> Tensor:
        """The forward over a ``(W, B, T)`` block of token ids, on leaves
        with a leading worker axis: ``(W, B, T, vocab)`` logits.

        Every weight is viewed as ``(W, 1, rows, cols)`` and every bias as
        ``(W, 1, 1, cols)``, so each GEMM runs per worker and per
        sequence, as the one-worker pass's ``(B, T, d) @ (d, d)`` does,
        and each weight's gradient is the per-sequence products summed
        over ``B`` (a ``(W * B * T, d)`` GEMM would sum in another order).
        """
        token_ids = np.asarray(token_ids)
        workers, _, length = token_ids.shape
        if length > self.max_len:
            raise ValueError(f"sequence length {length} exceeds max_len {self.max_len}")

        def weight(name: str) -> Tensor:
            return reshape(tensors[name], (workers, 1, *tensors[name].shape[1:]))

        def bias(name: str) -> Tensor:
            return reshape(tensors[name], (workers, 1, 1, tensors[name].shape[-1]))

        h = embedding(tensors["embed.weight"], token_ids)
        positions = np.broadcast_to(np.arange(length), (workers, length))
        pos = embedding(tensors["pos.weight"], positions)
        h = h + reshape(pos, (workers, 1, length, self.d_model))  # broadcast over batch

        # Single-head scaled dot-product attention.
        q = h @ weight("attn.wq")
        k = h @ weight("attn.wk")
        v = h @ weight("attn.wv")
        # The scale in the activations' dtype: a float64 constant would
        # promote a float32 pass.
        scale = Tensor(np.asarray(1.0 / np.sqrt(self.d_model), dtype=h.data.dtype))
        scores = (q @ k.transpose((0, 1, 3, 2))) * scale
        attn = softmax(scores, axis=-1)
        context = (attn @ v) @ weight("attn.wo")
        h = layer_norm(h + context, tensors["ln1.gamma"], tensors["ln1.beta"])

        # Position-wise FFN.
        ff = (h @ weight("ffn.w1") + bias("ffn.b1")).relu()
        ff = ff @ weight("ffn.w2") + bias("ffn.b2")
        h = layer_norm(h + ff, tensors["ln2.gamma"], tensors["ln2.beta"])

        return h @ weight("out.weight") + bias("out.bias")

    def loss_and_grad_workers(
        self, params: dict[str, np.ndarray], xs: np.ndarray, ys: np.ndarray, out=None
    ) -> tuple[np.ndarray, dict[str, np.ndarray], list[dict[str, float]]]:
        """Forward + backward for ``W`` workers' ``(B, T)`` token batches
        at once, bit-identical to ``W`` one-worker calls (pinned by
        ``tests/property/test_blocked_transformer.py``).

        ``xs`` and ``ys`` are ``(W, B, T)``; a label < 0 is padding, and
        each worker's loss and ``token_accuracy`` count its own valid
        labels, at least one.  Every parameter gets a worker axis as a
        read-only stride-0 view, and with ``out`` — ``(W, *shape)``
        destinations — each gradient lands in the caller's block.  The
        pass is recorded once per shape and replayed
        (:class:`~repro.models.autodiff.Programs`).
        """
        xs, ys = np.asarray(xs), np.asarray(ys)
        workers, local = ys.shape[:2]
        # The largest temporaries are a weight's per-sequence gradient products
        # and the FFN / vocabulary activations, (W, B, <= max(d, T), width);
        # a pass's transients peak at 11-12.5x that (measured).
        width = max(self.d_model, self.d_ff, self.vocab_size)
        largest = workers * local * max(self.d_model, xs.shape[-1]) * width
        heap = 7 * largest * np.asarray(params["out.weight"]).itemsize
        losses, grads, logits = self._programs.run(self._logits, params, xs, ys, out, heap=heap)
        valid = ys >= 0
        correct = ((logits.argmax(axis=-1) == ys) & valid).sum(axis=(1, 2))
        counts = np.maximum(valid.sum(axis=(1, 2)), 1)
        metrics = [{"token_accuracy": int(c) / int(n)} for c, n in zip(correct, counts)]
        return losses, grads, metrics

    def evaluate(
        self, params: dict[str, np.ndarray], x: np.ndarray, y: np.ndarray
    ) -> float:
        """Token accuracy — the BLEU proxy for Table 2."""
        # Leaves that take no gradient: the forward builds no tape.
        leaves = {name: Tensor(value[None]) for name, value in params.items()}
        predictions = self._logits(leaves, np.asarray(x)[None]).data[0].argmax(axis=-1)
        valid = np.asarray(y) >= 0
        return float((predictions[valid] == np.asarray(y)[valid]).mean())


def make_copy_task(
    rng: RandomState,
    *,
    num_samples: int,
    vocab_size: int = 64,
    seq_len: int = 12,
) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic 'translation': target token = permuted *neighbour* token.

    ``y[i] = mapping[x[(i + 1) % L]]`` — the vocabulary permutation
    needs the embeddings/output head, and the positional shift needs the
    attention layer (a bag-of-tokens model cannot solve it), so the task
    genuinely exercises the Transformer; convergence behaviour under
    sparsified gradients mirrors the real seq2seq task at this scale.
    """
    mapping = rng.permutation(vocab_size)
    x = rng.integers(1, vocab_size, size=(num_samples, seq_len))
    y = mapping[np.roll(x, -1, axis=1)]
    return x, y


__all__ = ["TinyTransformer", "make_copy_task"]
