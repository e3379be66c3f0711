"""Cloud performance variability: stragglers and jitter.

Public-cloud VMs share hosts and networks; synchronous SGD runs at the
pace of the *slowest* participant each iteration.  The paper sidesteps
the issue by measuring steady-state averages, but any system built for
its setting has to reason about it — so this module models it:

* per-node multiplicative slowdown factors (log-normal, the standard
  empirical model for shared-infrastructure jitter);
* the synchronous-step rule: dense flat schemes wait for the globally
  slowest worker on every ring step, while hierarchical schemes confine
  a straggler's damage to its intra-node phase plus its one inter-node
  stream.

The elastic trainer composes the per-node factors into its step times;
:func:`expected_slowdown` quantifies how much of HiTopKComm's advantage
survives (or grows) under jitter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.network import NetworkModel
from repro.utils.seeding import RandomState, new_rng


@dataclass(frozen=True)
class VariabilityModel:
    """Log-normal per-node slowdown sampler.

    ``sigma`` is the log-space standard deviation; 0 disables jitter.
    Factors are >= 1 (a node can only be slower than spec).
    """

    sigma: float = 0.1

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")

    def sample_node_factors(self, num_nodes: int, rng: RandomState) -> np.ndarray:
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        if self.sigma == 0:
            return np.ones(num_nodes)
        draws = rng.lognormal(mean=0.0, sigma=self.sigma, size=num_nodes)
        return np.maximum(1.0, draws)


def straggled_flat_time(base_time: float, factors: np.ndarray) -> float:
    """A flat (ring/tree over all P) collective under per-node slowdowns.

    Every step synchronises all nodes, so the whole collective stretches
    by the slowest node's factor.
    """
    if base_time < 0:
        raise ValueError(f"base_time must be non-negative, got {base_time}")
    return base_time * float(np.max(factors))


def straggled_hierarchical_time(
    intra_time: float, inter_time: float, factors: np.ndarray
) -> float:
    """A hierarchical collective under per-node slowdowns.

    The intra-node phases run per node in parallel — the barrier before
    the inter-node phase waits for the slowest node's *intra* work — and
    the inter-node exchange again synchronises everyone.  The key
    difference from the flat case: the (dominant, when sparse) inter
    phase carries far less data, so the multiplicative stretch applies
    to a much smaller base.
    """
    if intra_time < 0 or inter_time < 0:
        raise ValueError("phase times must be non-negative")
    worst = float(np.max(factors))
    return intra_time * worst + inter_time * worst


def expected_slowdown(
    network: NetworkModel,
    sparse_inter_fraction: float,
    *,
    sigma: float = 0.15,
    trials: int = 200,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte-Carlo mean slowdown of (flat, hierarchical) schemes.

    ``sparse_inter_fraction`` is the fraction of the hierarchical
    scheme's base time spent in the inter-node phase.  Returns the mean
    multiplicative stretch of each scheme over ``trials`` draws.
    """
    if not 0 <= sparse_inter_fraction <= 1:
        raise ValueError("sparse_inter_fraction must be in [0, 1]")
    model = VariabilityModel(sigma=sigma)
    rng = new_rng(seed)
    flat_total = 0.0
    hier_total = 0.0
    for _ in range(trials):
        factors = model.sample_node_factors(network.num_nodes, rng)
        flat_total += straggled_flat_time(1.0, factors)
        hier_total += straggled_hierarchical_time(
            1.0 - sparse_inter_fraction, sparse_inter_fraction, factors
        )
    return flat_total / trials, hier_total / trials


__all__ = [
    "VariabilityModel",
    "straggled_flat_time",
    "straggled_hierarchical_time",
    "expected_slowdown",
]
