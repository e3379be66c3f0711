"""Momentum SGD over named parameter dictionaries.

Parameters and gradients are ``dict[str, np.ndarray]``; the optimizer
mutates parameters in place (like framework optimizers) and keeps its
momentum state keyed by parameter name.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np


class SGD:
    """Synchronous SGD with momentum and (decoupled) weight decay.

    Implements the update of paper Eq. (1) plus the standard momentum
    buffer:  ``v ← μ v + g + λ w``;  ``w ← w − η v``.
    """

    def __init__(
        self,
        lr: float = 0.1,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if not 0 <= momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {weight_decay}")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: dict[str, np.ndarray] = {}

    def step(
        self,
        params: dict[str, np.ndarray],
        grads: Mapping[str, np.ndarray],
        *,
        lr: float | None = None,
    ) -> None:
        """Apply one update in place.  ``lr`` overrides the stored rate."""
        # A Python float scales any dtype without promoting it; a NumPy
        # float64 scalar (a LARS rate from an array) would not.
        lr = float(self.lr if lr is None else lr)
        for name, w in params.items():
            if name not in grads:
                raise KeyError(f"missing gradient for parameter {name!r}")
            g = np.asarray(grads[name])
            if g.shape != w.shape:
                raise ValueError(
                    f"gradient shape {g.shape} != parameter shape {w.shape} "
                    f"for {name!r}"
                )
            if self.weight_decay:
                g = g + self.weight_decay * w
            if self.momentum:
                v = self._velocity.get(name)
                if v is None:
                    v = self._velocity[name] = np.zeros_like(w)
                # In place: the same multiply, then the same add.
                np.multiply(v, self.momentum, out=v)
                v += g
                g = v
            w -= lr * g


__all__ = ["SGD"]
