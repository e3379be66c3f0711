"""The generic parallel tensor operator (paper §4.2, Eqs. 12–14).

For an operation ``r = OP(g)`` whose input ``g`` is replicated on all
``P`` workers and whose output is identical everywhere, PTO partitions
``g`` into ``P`` pieces, has worker ``p`` compute ``r[p] = OP(g[p])``
(Eq. 13), and re-assembles ``r = All-Gather(r[p])`` (Eq. 14).

"if the time cost of the All-Gather operation is smaller than the time
reduction of computing, PTO can accelerate the computation" — the
:class:`PTOCostModel` captures exactly that trade-off, calibrated to the
paper's §5.4 measurements (LARS on ResNet-50: 11 ms → 7 ms; on
Transformer: 30 ms → 14 ms, both ≈ 2× on 128 GPUs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.cluster.gpu import FP32_BYTES
from repro.cluster.network import NetworkModel
from repro.utils.partition import partition_layers, partition_layers_balanced


@dataclass
class PTOResult:
    """Functional output of a PTO execution."""

    result: np.ndarray  # the assembled result every worker holds after Eq. 14
    per_worker_pieces: list[np.ndarray]  # what each worker computed locally
    assignment: list[list[int]]  # layer indices per worker


class ParallelTensorOperator:
    """Partition a per-layer computation across the cluster's workers.

    Parameters
    ----------
    network:
        Cluster model; supplies ``P`` and the All-Gather cost.
    op:
        The per-layer function; receives one layer's payload and returns
        a scalar or small array.
    balanced:
        Use size-balanced layer assignment instead of the paper's
        contiguous split (ablation knob).
    """

    def __init__(
        self,
        network: NetworkModel,
        op: Callable[[object], np.ndarray | float],
        *,
        balanced: bool = False,
    ) -> None:
        self.network = network
        self.op = op
        self.balanced = balanced

    def run(self, layers: Sequence[object], layer_sizes: Sequence[int] | None = None) -> PTOResult:
        """Partitioned execution (Eqs. 13–14) over ``P`` virtual workers."""
        p = self.network.world_size
        if layer_sizes is None:
            layer_sizes = [1] * len(layers)
        if len(layer_sizes) != len(layers):
            raise ValueError("layer_sizes must align with layers")
        split = partition_layers_balanced if self.balanced else partition_layers
        assignment = split(list(layer_sizes), p)

        pieces: list[np.ndarray] = []
        for worker_layers in assignment:
            piece = np.asarray(
                [np.asarray(self.op(layers[i])) for i in worker_layers]
            ).ravel()
            pieces.append(piece)

        # All-Gather (Eq. 14): reassemble in layer order.  With the
        # contiguous split, concatenating worker pieces already yields
        # layer order; the balanced split needs a permutation.
        flat_order = [i for worker_layers in assignment for i in worker_layers]
        gathered = np.concatenate([p_ for p_ in pieces if p_.size > 0])
        result = np.empty_like(gathered)
        result[np.asarray(flat_order, dtype=np.int64)] = gathered
        return PTOResult(
            result=result,
            per_worker_pieces=pieces,
            assignment=assignment,
        )


@dataclass(frozen=True)
class PTOCostModel:
    """Virtual-time model of serial vs PTO execution of a layer-wise op.

    The serial cost is dominated by per-layer kernel-dispatch overhead
    (each LARS layer launches ~8 small kernels through the framework at
    ~9 µs apiece — norms, divisions, scalings) plus a memory-bound term
    over the parameter bytes.  The PTO cost replaces ``L`` layers with
    ``ceil(L / P)`` per worker, but pays a small per-layer result-gather
    overhead — the paper's measured 11→7 ms / 30→14 ms (§5.4) implies the
    gather path costs ~35 µs per layer on their 128-GPU Horovod setup,
    which is what bounds PTO's speedup to ~2× rather than ~P×.
    """

    kernels_per_layer: float = 8.0
    op_overhead: float = 9e-6  # seconds per small kernel through the framework
    memory_bandwidth: float = 800e9  # bytes/s effective for the norm reductions
    gather_overhead_per_layer: float = 45e-6  # seconds per gathered result

    def serial_time(self, layer_sizes: Sequence[int]) -> float:
        n_layers = len(layer_sizes)
        total_bytes = sum(layer_sizes) * FP32_BYTES
        launch = n_layers * self.kernels_per_layer * self.op_overhead
        # Each norm reads the layer twice (weights and gradients).
        return launch + 2.0 * total_bytes / self.memory_bandwidth

    def pto_time(
        self,
        layer_sizes: Sequence[int],
        network: NetworkModel,
    ) -> float:
        p = network.world_size
        n_layers = len(layer_sizes)
        assignment = partition_layers(list(layer_sizes), p)
        # The slowest worker bounds the compute phase.
        worst_layers = max((len(a) for a in assignment), default=0)
        worst_bytes = max(
            (sum(layer_sizes[i] for i in a) for a in assignment), default=0
        ) * FP32_BYTES
        compute = (
            worst_layers * self.kernels_per_layer * self.op_overhead
            + 2.0 * worst_bytes / self.memory_bandwidth
        )
        # All-Gather of the per-layer scalars across nodes: latency-bound.
        allgather = network.inter.alpha * math.log2(max(2, network.num_nodes))
        gather = n_layers * self.gather_overhead_per_layer
        return compute + allgather + gather

    def speedup(self, layer_sizes: Sequence[int], network: NetworkModel) -> float:
        return self.serial_time(layer_sizes) / self.pto_time(layer_sizes, network)


__all__ = ["ParallelTensorOperator", "PTOResult", "PTOCostModel"]
