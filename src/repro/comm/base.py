"""Scheme interface shared by dense and sparse aggregation."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.cluster.network import NetworkModel
from repro.collectives.primitives import broadcast_views
from repro.comm.breakdown import TimeBreakdown
from repro.utils.seeding import RandomState


@dataclass
class AggregationResult:
    """Outcome of one gradient aggregation round.

    Attributes
    ----------
    outputs:
        Per-rank aggregated gradient (all equal for correct schemes; for
        sparse schemes this is the sparsified global sum densified).
        Since the vectorised hot path these are zero-copy *views* of one
        shared aggregate — treat them as read-only.
    breakdown:
        Virtual-time breakdown of the aggregation steps.
    inter_bytes:
        Bytes crossing one node NIC (per node, per direction) — the
        quantity the hierarchical design minimises.
    intra_bytes:
        Bytes moved over NVLink per GPU.
    """

    outputs: list[np.ndarray]
    breakdown: TimeBreakdown
    inter_bytes: float = 0.0
    intra_bytes: float = 0.0
    extras: dict = field(default_factory=dict)

    @property
    def aggregate(self) -> np.ndarray:
        """The single shared aggregate all ranks receive."""
        return self.outputs[0]

    @property
    def time(self) -> float:
        return self.breakdown.total


class CommScheme(abc.ABC):
    """A gradient aggregation scheme over a virtual cluster.

    Subclasses implement both the *functional* aggregation (NumPy data
    movement, used by convergence experiments and tests) and the
    *analytic* time model (used by the Fig. 7/8 harnesses where only the
    tensor size matters).
    """

    #: Scheme name as it appears in the paper's figures.
    name: str = "scheme"
    #: True when the output is the exact dense sum of the inputs.
    dense: bool = True
    #: The :meth:`time_model` step that is top-k selection, if any.
    selection_step: str | None = None

    def __init__(self, network: NetworkModel) -> None:
        self.network = network

    @property
    def topology(self):
        return self.network.topology

    @abc.abstractmethod
    def aggregate(
        self, worker_grads: Sequence[np.ndarray], *, rng: RandomState | None = None
    ) -> AggregationResult:
        """Aggregate per-rank gradients; returns data + timing.

        ``worker_grads`` is either a rank-indexed sequence of 1-D
        arrays (the historical interface) or a ``(world_size, d)``
        matrix whose rows are the per-rank fused gradients — the
        hot-path form the trainer feeds from its preallocated fusion
        buffer.  Implementations never mutate the input.
        """

    @abc.abstractmethod
    def time_model(self, d: int) -> TimeBreakdown:
        """Analytic virtual-time breakdown for a ``d``-element gradient."""

    def selection_and_communication(self, d: int) -> tuple[float, float]:
        """(selection, communication) seconds for a ``d``-element gradient.

        The split of the Fig. 1 bars: selection is the "Compression"
        bar, everything else in :meth:`time_model` is communication.
        """
        breakdown = self.time_model(d)
        if self.selection_step is None:
            return 0.0, breakdown.total
        selection = breakdown.get(self.selection_step)
        return selection, breakdown.total - selection

    def _worker_matrix(self, worker_grads) -> np.ndarray:
        """Normalise the aggregate input to a validated ``(W, d)`` matrix.

        A 2-D array passes through as a zero-copy view (the trainer's
        preallocated fusion buffer); a sequence of 1-D per-rank arrays —
        the historical interface — is validated and stacked.
        """
        if isinstance(worker_grads, np.ndarray) and worker_grads.ndim == 2:
            expected = self.topology.world_size
            if worker_grads.shape[0] != expected:
                raise ValueError(
                    f"{self.name}: got {worker_grads.shape[0]} gradient rows for "
                    f"world size {expected}"
                )
            return worker_grads
        return np.stack(self._check_world(worker_grads))

    def _check_world(self, worker_grads: Sequence[np.ndarray]) -> list[np.ndarray]:
        expected = self.topology.world_size
        if len(worker_grads) != expected:
            raise ValueError(
                f"{self.name}: got {len(worker_grads)} gradients for "
                f"world size {expected}"
            )
        arrays = [np.asarray(g) for g in worker_grads]
        d = arrays[0].size
        for rank, arr in enumerate(arrays):
            if arr.ndim != 1:
                raise ValueError(f"{self.name}: rank {rank} gradient must be 1-D")
            if arr.size != d:
                raise ValueError(
                    f"{self.name}: rank {rank} has {arr.size} elements, expected {d}"
                )
        return arrays

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(network={self.network!r})"


__all__ = ["AggregationResult", "CommScheme", "broadcast_views"]
