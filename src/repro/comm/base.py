"""Scheme interface shared by dense and sparse aggregation."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.network import NetworkModel
from repro.comm.breakdown import TimeBreakdown
from repro.utils.seeding import RandomState


@dataclass
class AggregationResult:
    """Outcome of one gradient aggregation round.

    Attributes
    ----------
    aggregate:
        The aggregated gradient every rank receives (for sparse schemes,
        the sparsified global sum densified).  Read-only: an in-place
        edit raises.
    breakdown:
        Virtual-time breakdown of the aggregation steps.
    inter_bytes:
        Bytes crossing one node NIC (per node, per direction) — the
        quantity the hierarchical design minimises.
    intra_bytes:
        Bytes moved over NVLink per GPU.
    """

    aggregate: np.ndarray
    breakdown: TimeBreakdown
    inter_bytes: float = 0.0
    intra_bytes: float = 0.0
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.aggregate.flags.writeable = False

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
        self, worker_grads: np.ndarray, *, rng: RandomState | None = None
    ) -> AggregationResult:
        """Aggregate a ``(world_size, d)`` matrix whose row ``r`` is rank
        ``r``'s fused gradient; returns data + timing.  Implementations
        never mutate the input.
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
        """``worker_grads`` itself once it is a ``(world_size, d)`` array;
        anything else is one ``ValueError`` line."""
        world = self.topology.world_size
        if not (
            isinstance(worker_grads, np.ndarray)
            and worker_grads.ndim == 2
            and len(worker_grads) == world
        ):
            got = getattr(worker_grads, "shape", type(worker_grads).__name__)
            raise ValueError(
                f"{self.name}: needs a (world size {world}, d) gradient matrix, got {got}"
            )
        return worker_grads

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(network={self.network!r})"


__all__ = ["AggregationResult", "CommScheme"]
