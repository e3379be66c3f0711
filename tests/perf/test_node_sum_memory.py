"""The node-sum route's memory gate and its edges.

At ``train-comm``'s shape (``MLPClassifier(64, (512, 512), 16)``, 2 x 8
workers, batch 2, float32) the trainer folds every node's gradients
into HiTopKComm's ``(m, d)`` node accumulator as the backward makes
them, so it never holds the ``(W, d)`` matrix, nor any ``(W, ·)`` buffer
of the small parameters, and the dense aggregate is freed before the
update: building it and taking one step must peak below 11 MiB (the
route at ≈ 10.1 MiB; ≈ 13.9 MiB with a ``(W, d_small)`` buffer and the
aggregate alive through the update; the matrix route ≈ 28.9 MiB, its
``(W, d)`` matrix alone 18.56 MiB).  The edges: a padded step stays on
the route; a model that returns its gradients elsewhere still lands
them; the route is taken only where the trainer decides it pays, and
the timer still sees each phase once a step.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from benchmarks.e2e import train
from benchmarks.e2e.spec import SIZES
from repro.api.registry import build_cluster, build_scheme
from repro.models.nn.mlp import MLPClassifier
from repro.optim.sgd import SGD
from repro.train.trainer import DistributedTrainer
from tests.conftest import PhaseTimer
from tests.perf.test_node_sum_bits import _pair, _steps, assert_same_run

COMM = SIZES["full"]["train-comm"]


def _comm_trainer(model=None) -> DistributedTrainer:
    network = build_cluster("tencent", COMM["nodes"], gpus_per_node=COMM["gpus"])
    scheme = build_scheme("mstopk", network, density=COMM["density"])
    model = model or MLPClassifier(COMM["input_dim"], COMM["hidden"], COMM["classes"])
    return DistributedTrainer(model, scheme, SGD(lr=COMM["lr"]), seed=7)


def test_the_route_never_holds_a_worker_by_gradient_matrix():
    world = COMM["nodes"] * COMM["gpus"]
    rng = np.random.default_rng(0)
    batches = [
        (rng.normal(size=(COMM["local_batch"], COMM["input_dim"])),
         rng.integers(0, COMM["classes"], size=COMM["local_batch"]))
        for _ in range(world)
    ]
    _comm_trainer().train_step(batches)  # warm: lazy imports, caches
    tracemalloc.start()
    try:
        trainer = _comm_trainer()
        trainer.train_step(batches)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trainer._aggregate == "aggregate_node_sums"
    assert peak < 11 * 2**20, peak / 2**20


@pytest.mark.parametrize("pad", ["one-label", "a-whole-worker"])
def test_a_padded_step_stays_on_the_route(monkeypatch, pad):
    """Padded labels stack: the step is one blocked pass folded into the
    node sums, and the bits are the matrix route's."""
    route, matrix = _pair(monkeypatch, MLPClassifier(16, (300, 260), 10), 2, 3)
    steps = _steps(np.random.default_rng(1), 6, 3, 16, 10)
    steps[1][0][1][0] = -1
    if pad == "a-whole-worker":
        steps[1][4][1][:] = -1
    assert_same_run(route, matrix, steps)


class _IgnoresDestinations:
    """A model that computes every gradient in arrays of its own."""

    def __init__(self, model):
        self.model = model

    def init_params(self, rng):
        return self.model.init_params(rng)

    def loss_and_grad_workers(self, params, xs, ys, out=None):
        return self.model.loss_and_grad_workers(params, xs, ys)


def test_gradients_computed_elsewhere_still_land(monkeypatch):
    model = _IgnoresDestinations(MLPClassifier(5, (300, 260, 7), 3))
    route, matrix = _pair(monkeypatch, model, 2, 2)
    assert_same_run(route, matrix, _steps(np.random.default_rng(2), 4, 2, 5, 3))


def test_the_route_times_each_phase_once_a_step():
    trainer = _comm_trainer()
    trainer.timer = timer = PhaseTimer()
    batches = [(np.zeros((2, 64)), np.arange(2))] * 16
    for _ in range(3):
        trainer.train_step(batches)
    assert timer.calls == {"forward_backward": 3, "fuse": 3, "aggregate": 3, "apply": 3}


@pytest.mark.parametrize(
    "change",
    ["train-compute", "float64", "one-worker", "dense-scheme", "small-weights", "one-column"],
)
def test_the_route_is_taken_only_where_it_pays(monkeypatch, change):
    """``train-compute``'s CNN (d = 862, no parameter above the sink
    bound) and every other missing condition keep the matrix route."""
    comm_mlp = MLPClassifier(COMM["input_dim"], COMM["hidden"], COMM["classes"])
    if change == "train-compute":
        trainer, _, _ = train._trainer(change, 7, SIZES["full"][change], None)
    elif change == "float64":
        monkeypatch.setattr(MLPClassifier, "dtype", np.float64)
        trainer = _comm_trainer()
    elif change == "one-worker":
        network = build_cluster("tencent", 1, gpus_per_node=1)
        trainer = DistributedTrainer(comm_mlp, build_scheme("mstopk", network))
    elif change == "dense-scheme":
        network = build_cluster("tencent", COMM["nodes"], gpus_per_node=COMM["gpus"])
        trainer = DistributedTrainer(comm_mlp, build_scheme("dense", network))
    elif change == "small-weights":
        trainer = _comm_trainer(MLPClassifier(64, (64, 64), 16))
    else:  # a (65 537, 1) weight's product is a GEMV: no sink
        trainer = _comm_trainer(MLPClassifier(65537, (1,), 2))
    assert trainer._aggregate == "aggregate"
    assert trainer._grads.shape == (trainer.world_size, trainer.grad_dim)
