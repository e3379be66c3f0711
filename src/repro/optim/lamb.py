"""LAMB — layer-wise adaptive moments (You et al. 2020).

The paper cites LAMB as the large-batch optimizer for attention models
("LARS ... or LAMB is required to preserve the model generalization
ability", §2.2) and notes PTO applies to it the same way (§4.2).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np


class LAMB:
    """LAMB: Adam moments with a per-layer trust ratio."""

    def __init__(
        self,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-6,
        weight_decay: float = 0.01,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        beta1, beta2 = betas
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._step_count = 0

    def trust_ratio(self, weight: np.ndarray, update: np.ndarray) -> float:
        """The per-layer ||w|| / ||u|| ratio (what PTO parallelises)."""
        w_norm = float(np.linalg.norm(weight))
        u_norm = float(np.linalg.norm(update))
        if w_norm == 0.0 or u_norm == 0.0:
            return 1.0
        return w_norm / u_norm

    def step(
        self,
        params: dict[str, np.ndarray],
        grads: Mapping[str, np.ndarray],
        *,
        lr: float | None = None,
        precomputed_ratios: Mapping[str, float] | None = None,
    ) -> None:
        """One LAMB update in place."""
        lr = self.lr if lr is None else lr
        self._step_count += 1
        t = self._step_count
        for name, w in params.items():
            g = np.asarray(grads[name])
            if g.shape != w.shape:
                raise ValueError(
                    f"gradient shape {g.shape} != parameter shape {w.shape} for {name!r}"
                )
            m = self._m.get(name)
            v = self._v.get(name)
            if m is None:
                m = np.zeros_like(w)
                v = np.zeros_like(w)
            m = self.beta1 * m + (1 - self.beta1) * g
            v = self.beta2 * v + (1 - self.beta2) * g * g
            self._m[name] = m
            self._v[name] = v
            m_hat = m / (1 - self.beta1**t)
            v_hat = v / (1 - self.beta2**t)
            update = m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * w
            if precomputed_ratios is not None and name in precomputed_ratios:
                ratio = precomputed_ratios[name]
            else:
                ratio = self.trust_ratio(w, update)
            w -= lr * ratio * update

    def updates(
        self, params: dict[str, np.ndarray], grads: Mapping[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        """The pre-trust-ratio update directions (input to PTO's ratios).

        Pure (does not advance optimizer state); mirrors what the real
        system hands to PTO to compute the trust ratios (§4.2).
        """
        out: dict[str, np.ndarray] = {}
        t = self._step_count + 1
        for name, w in params.items():
            g = np.asarray(grads[name])
            m = self._m.get(name, np.zeros_like(w))
            v = self._v.get(name, np.zeros_like(w))
            m = self.beta1 * m + (1 - self.beta1) * g
            v = self.beta2 * v + (1 - self.beta2) * g * g
            m_hat = m / (1 - self.beta1**t)
            v_hat = v / (1 - self.beta2**t)
            out[name] = m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * w
        return out


__all__ = ["LAMB"]
