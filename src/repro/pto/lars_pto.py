"""PTO applied to LARS learning-rate computation (§4.2).

"We partition the workload in terms of the layer for different GPUs ...
Finally, the layer-wise learning rates on the GPUs are all-gathered,
which is with very low communication traffic as each layer's learning
rate is a scalar."
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cluster.network import NetworkModel
from repro.optim.lars import lars_coefficient
from repro.pto.operator import ParallelTensorOperator, PTOResult


def lars_learning_rates_pto(
    network: NetworkModel,
    weights: Sequence[np.ndarray],
    grads: Sequence[np.ndarray],
    *,
    eta: float,
    trust_coefficient: float = 0.001,
    weight_decay: float = 1e-4,
    balanced: bool = False,
) -> PTOResult:
    """Layer-wise LARS rates (paper Eq. 11) computed with PTO.

    Returns a :class:`PTOResult` whose ``result`` is the per-layer
    learning-rate vector, identical on every worker and equal to the
    serial computation (tested).
    """
    if len(weights) != len(grads):
        raise ValueError(
            f"weights ({len(weights)}) and grads ({len(grads)}) must align"
        )
    layers = list(zip(weights, grads))
    sizes = [np.asarray(w).size for w in weights]

    def op(layer: tuple[np.ndarray, np.ndarray]) -> float:
        w, g = layer
        return lars_coefficient(
            w,
            g,
            eta=eta,
            trust_coefficient=trust_coefficient,
            weight_decay=weight_decay,
        )

    pto = ParallelTensorOperator(network, op, balanced=balanced)
    return pto.run(layers, layer_sizes=sizes)


__all__ = ["lars_learning_rates_pto"]
