"""The node-sum route, bit for bit against the matrix route.

On the node-sum route (``train/trainer.py``) a HiTopKComm trainer folds
each node's workers into the scheme's ``(m, d)`` node accumulator while
the backward makes the gradient: every parameter's destination is a
``_FoldSink``, which takes a weight's product one node at a time (in row
slabs where a node's product is above the slab bound) and any other
gradient whole.  The matrix route computes all ``W`` rows into a
``(W, d)`` matrix and reduce-scatters it.  The fuzz below drives both
through the same steps and requires the node sums handed to steps 2-4,
the per-step losses and the final parameters to be the same bits.

It covers the shapes the route takes: MLPs with one weight above the
sink bound (rows and columns from 2 to tens of thousands, so slabs of
two rows up to the whole product) at any depth, small layers around it,
local batches 1-4, ``(m, n)`` with ``n ∤ d`` and ``n = 1``, and slab
sizes from the two-row minimum to the shipped one, whose edges fall
inside the ring's chunks; then a one-column weight (never split), a
product exactly one slab in size, and a gradient the model returns
outside its destination.  The full ``train-comm`` shape is pinned by
``tests/perf/test_train_comm_full_shape.py``.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.api.registry import build_cluster, build_scheme
from repro.models.nn.mlp import MLPClassifier
from repro.optim.sgd import SGD
from repro.train import trainer as trainer_module
from repro.train.trainer import DistributedTrainer
from tests.models.kernel_oracles import assert_same_bits

STEPS = 3
TOPOLOGIES = [(1, 2), (2, 2), (1, 3), (2, 3), (3, 2), (1, 5), (2, 4), (4, 1), (2, 8)]


def _record_node_sums(trainer: DistributedTrainer) -> list[np.ndarray]:
    """Copies of every node accumulator the trainer's scheme runs steps
    2-4 from (both routes call ``aggregate_node_sums``)."""
    seen: list[np.ndarray] = []
    inner = trainer.scheme.aggregate_node_sums

    def spy(node_acc, **kwargs):
        seen.append(node_acc.copy())
        return inner(node_acc, **kwargs)

    trainer.scheme.aggregate_node_sums = spy
    return seen


def _pair(monkeypatch, model, nodes, gpus, slab_bytes=None, seed=0):
    """A trainer on the node-sum route and one on the matrix route."""
    network = build_cluster("tencent", nodes, gpus_per_node=gpus)

    def make():
        scheme = build_scheme("mstopk", network, density=0.1)
        return DistributedTrainer(model, scheme, SGD(lr=0.05, momentum=0.9), seed=seed)

    if slab_bytes is not None:
        monkeypatch.setattr(trainer_module, "_SLAB_BYTES", slab_bytes)
    route = make()
    monkeypatch.setattr(trainer_module, "_SINK_BYTES", sys.maxsize)
    matrix = make()
    assert route._node_sums is not None and route._grad_matrix is None
    assert matrix._node_sums is None and matrix._grad_matrix is not None
    return route, matrix


def _steps(rng, world, batch, input_dim, classes):
    return [
        [
            (
                rng.normal(size=(batch, input_dim)).astype(np.float32),
                rng.integers(0, classes, size=batch),
            )
            for _ in range(world)
        ]
        for _ in range(STEPS)
    ]


def assert_same_run(route, matrix, steps):
    route_sums, matrix_sums = _record_node_sums(route), _record_node_sums(matrix)
    for batches in steps:
        assert route.train_step(batches) == matrix.train_step(batches)
    assert len(route_sums) == len(matrix_sums) == len(steps)
    for got, want in zip(route_sums, matrix_sums):
        assert_same_bits(got, want)
    for name, value in matrix.params.items():
        assert_same_bits(route.params[name], value)


#: ``(rows, cols)`` of the weight above the sink bound (65 536 float32s).
LARGE = [
    (300, 260), (520, 130), (129, 511), (257, 257), (1025, 65), (2049, 33),
    (9363, 7), (21846, 3), (32769, 2), (2, 32769), (3, 21846), (7, 9363), (40, 1700),
]


@pytest.mark.parametrize("case", range(39))
def test_node_sums_and_losses_match_the_matrix_route(monkeypatch, case):
    rng = np.random.default_rng(case)
    rows, cols = LARGE[case % len(LARGE)]
    # The large weight at the front, in the middle or at the back.
    dims = [int(w) for w in rng.integers(2, 24, size=4)]
    at = case % 3
    dims[at : at + 2] = [rows, cols]
    model = MLPClassifier(dims[0], tuple(dims[1:-1]), dims[-1])
    nodes, gpus = TOPOLOGIES[case % len(TOPOLOGIES)]
    # Two-row slabs, slabs whose edges fall inside a chunk, or the
    # shipped size.
    slab_bytes = [1, int(rng.integers(3, 40)) * 4 * cols * gpus, None][(case // 3) % 3]
    batch = 1 + case % 4
    route, matrix = _pair(monkeypatch, model, nodes, gpus, slab_bytes, seed=case)
    steps = _steps(rng, nodes * gpus, batch, dims[0], dims[-1])
    assert_same_run(route, matrix, steps)


def test_the_train_comm_mlp_matches_the_matrix_route(monkeypatch):
    """2 x 8 workers, batch 2: the benchmark's shape, at which ``fc1``
    folds in eight 64-row slabs per node."""
    route, matrix = _pair(monkeypatch, MLPClassifier(64, (512, 512), 16), 2, 8)
    assert_same_run(route, matrix, _steps(np.random.default_rng(5), 16, 2, 64, 16))


@pytest.mark.parametrize("slab_bytes", [1, None])
def test_a_one_column_weight_is_one_slab_whatever_its_size(monkeypatch, slab_bytes):
    """A ``(65 537, 1)`` product is a GEMV: split into row slabs its bits
    would differ, so it is computed whole at any slab bound."""
    route, matrix = _pair(monkeypatch, MLPClassifier(16, (65537, 1), 3), 2, 2, slab_bytes)
    sink = route._node_sums._dests["fc1.weight"]
    assert sink._slabs == [(0, 65537)]
    assert_same_run(route, matrix, _steps(np.random.default_rng(3), 4, 3, 16, 3))


def test_a_product_exactly_one_slab_in_size_is_one_gemm(monkeypatch):
    """At ``n * rows * cols`` bytes equal to the slab bound the product
    is not split: one slab, the matrix route's per-worker GEMM."""
    rows, cols, gpus = 300, 260, 3
    slab_bytes = gpus * rows * cols * np.dtype(np.float32).itemsize
    route, matrix = _pair(monkeypatch, MLPClassifier(rows, (cols, 9), 4), 2, gpus, slab_bytes)
    sink = route._node_sums._dests["fc0.weight"]
    assert sink._slabs == [(0, rows)] and sink.slab.size == gpus * rows * cols
    assert_same_run(route, matrix, _steps(np.random.default_rng(4), 6, 2, rows, 4))


class _OneGradientElsewhere:
    """A model that computes one gradient in an array of its own and
    every other in its destination."""

    def __init__(self, model, name):
        self.model, self.name = model, name

    def init_params(self, rng):
        return self.model.init_params(rng)

    def loss_and_grad_workers(self, params, xs, ys, out=None):
        out = {key: dest for key, dest in (out or {}).items() if key != self.name}
        return self.model.loss_and_grad_workers(params, xs, ys, out)


@pytest.mark.parametrize("name", ["fc0.weight", "fc1.bias", "fc2.weight"])
def test_a_gradient_returned_outside_its_destination_is_folded_whole(monkeypatch, name):
    """The trainer folds what the model returned as an array, after the
    backward: the large weight's, a bias's or a small weight's."""
    model = _OneGradientElsewhere(MLPClassifier(5, (300, 260, 7), 3), name)
    route, matrix = _pair(monkeypatch, model, 2, 3)
    assert_same_run(route, matrix, _steps(np.random.default_rng(6), 6, 2, 5, 3))
