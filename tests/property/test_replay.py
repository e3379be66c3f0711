"""Property: a replayed pass is the tape's pass, bit for bit.

Each model's ``loss_and_grad_workers`` records its first call at a key
(the tape, logging every numpy call) and replays every later call at
that key (:class:`repro.models.autodiff.Programs`).  A replay must give
the losses, every gradient and the metrics that the tape gives on the
same batch — compared with ``tobytes``, so the sign of zero counts — for
the MLP with array destinations, without, with some withheld and with
fold sinks at node-sum shapes; the CNN, one-sample batches and every
pass width included; the Transformer; in float32 and float64; at
several ``W`` and ``B``; and with padded labels.  The tape is the same
call on a fresh model, whose first call is that tape.  Each case
records on one batch and replays a second, so a kernel that reads a
stale buffer fails; a negative control swaps two recorded kernels and
must fail the same comparison.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")  # optional dep; CI installs it

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import build_cluster, build_scheme
from repro.models import autodiff
from repro.models.nn import convnet
from repro.models.nn.convnet import SmallConvNet
from repro.models.nn.mlp import MLPClassifier
from repro.models.nn.transformer import TinyTransformer
from repro.optim.sgd import SGD
from repro.train import trainer as trainer_module
from repro.train.trainer import DistributedTrainer
from repro.utils.seeding import new_rng


def assert_same_result(got, want) -> None:
    """``(losses, grads, metrics)`` equal byte for byte (``-0.0`` is not
    ``+0.0``), dtypes and shapes included."""
    (losses, grads, metrics), (want_losses, want_grads, want_metrics) = got, want
    assert losses.dtype == want_losses.dtype and losses.tobytes() == want_losses.tobytes()
    assert sorted(grads) == sorted(want_grads)
    for name, grad in grads.items():
        want = want_grads[name]
        assert (grad.dtype, grad.shape) == (want.dtype, want.shape), name
        assert grad.tobytes() == want.tobytes(), name
    assert metrics == want_metrics


def _copied(result):
    losses, grads, metrics = result
    return losses.copy(), {name: grad.copy() for name, grad in grads.items()}, metrics


class _Calls:
    """One parameter set's calls: replayed (on a model that recorded
    another batch first) or taped (on a fresh model)."""

    def __init__(self, build, params, names):
        self.build, self.params, self.names = build, params, names

    def destinations(self, workers):
        # NaN-prefilled: a kernel that reads its output before writing it shows.
        return {
            name: np.full((workers, *self.params[name].shape), np.nan, self.params[name].dtype)
            for name in self.names
        }

    def replayed(self, first, second):
        """The second batch on a model that recorded the first."""
        model = self.build()
        out = self.destinations(len(first[0]))
        model.loss_and_grad_workers(self.params, *first, out)
        with mock.patch.object(autodiff, "tape_pass", side_effect=AssertionError("not a replay")):
            return _copied(model.loss_and_grad_workers(self.params, *second, out))

    def taped(self, batch):
        """The batch on a fresh model: its first call is the tape."""
        return _copied(self.build().loss_and_grad_workers(self.params, *batch, self.destinations(len(batch[0]))))


def _labels(rng, shape, classes, padded):
    """Two label sets with the same padding (``-1``) positions: one key."""
    mask = rng.random(shape) < padded
    return [np.where(mask, -1, rng.integers(0, classes, size=shape)) for _ in range(2)]


@st.composite
def mlp_cases(draw):
    workers, local = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    dims = [draw(st.integers(1, 12)) for _ in range(draw(st.integers(2, 4)))]
    classes = draw(st.integers(2, 6))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    names = draw(st.sampled_from(["all", "some", "none"]))
    padded = draw(st.sampled_from([0.0, 0.4]))
    return workers, local, dims, classes, dtype, names, padded


@settings(max_examples=60, deadline=None)
@given(case=mlp_cases(), seed=st.integers(0, 2**16))
def test_mlp_replay_is_the_tape(case, seed):
    workers, local, dims, classes, dtype, names, padded = case
    rng = np.random.default_rng(seed)

    def build():
        model = MLPClassifier(dims[0], tuple(dims[1:]), classes)
        model.dtype = dtype
        return model

    params = build().init_params(new_rng(seed))
    chosen = {"all": sorted(params), "some": sorted(params)[::2], "none": []}[names]
    calls = _Calls(build, params, chosen)
    batches = [
        (rng.normal(size=(workers, local, dims[0])), ys)
        for ys in _labels(rng, (workers, local), classes, padded)
    ]
    replayed = calls.replayed(*batches)
    assert_same_result(replayed, calls.taped(batches[1]))


@st.composite
def cnn_cases(draw):
    workers, local = draw(st.integers(1, 5)), draw(st.sampled_from([1, 2, 3, 5]))
    image = 2 * draw(st.integers(2, 5))
    in_c, classes = draw(st.integers(1, 3)), draw(st.integers(2, 6))
    channels = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    per_pass = draw(st.one_of(st.none(), st.integers(1, 5)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    names = draw(st.sampled_from(["all", "some", "none"]))
    padded = draw(st.sampled_from([0.0, 0.4]))
    return workers, local, image, in_c, channels, classes, per_pass, dtype, names, padded


@settings(max_examples=60, deadline=None)
@given(case=cnn_cases(), seed=st.integers(0, 2**16))
def test_cnn_replay_is_the_tape(case, seed):
    workers, local, image, in_c, channels, classes, per_pass, dtype, names, padded = case
    rng = np.random.default_rng(seed)

    def build():
        return SmallConvNet(in_c, channels, classes, image)

    params = {
        name: value.astype(dtype) for name, value in build().init_params(new_rng(seed)).items()
    }
    chosen = {"all": sorted(params), "some": ["conv2.weight", "fc.bias"], "none": []}[names]
    calls = _Calls(build, params, chosen)
    batches = [
        (rng.normal(size=(workers, local, in_c, image, image)).astype(dtype), ys)
        for ys in _labels(rng, (workers, local), classes, padded)
    ]
    pass_bytes = convnet.PASS_BYTES if per_pass is None else per_pass * batches[0][0][0].size * 72
    with mock.patch.object(convnet, "PASS_BYTES", pass_bytes):
        replayed = calls.replayed(*batches)
        assert_same_result(replayed, calls.taped(batches[1]))


@st.composite
def transformer_cases(draw):
    workers, local = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    max_len = draw(st.integers(1, 6))
    length = draw(st.integers(1, max_len))
    shape = (draw(st.integers(2, 12)), 2 * draw(st.integers(1, 5)), draw(st.integers(1, 9)), max_len)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    names = draw(st.sampled_from(["all", "some", "none"]))
    padded = draw(st.sampled_from([0.0, 0.3]))
    return workers, local, length, shape, dtype, names, padded


@settings(max_examples=50, deadline=None)
@given(case=transformer_cases(), seed=st.integers(0, 2**16))
def test_transformer_replay_is_the_tape(case, seed):
    workers, local, length, shape, dtype, names, padded = case
    rng = np.random.default_rng(seed)
    vocab = shape[0]

    def build():
        return TinyTransformer(*shape)

    params = {
        name: value.astype(dtype) for name, value in build().init_params(new_rng(seed)).items()
    }
    chosen = {"all": sorted(params), "some": sorted(params)[1::3], "none": []}[names]
    calls = _Calls(build, params, chosen)
    batches = [
        (rng.integers(0, vocab, size=(workers, local, length)), ys)
        for ys in _labels(rng, (workers, local, length), vocab, padded)
    ]
    replayed = calls.replayed(*batches)
    assert_same_result(replayed, calls.taped(batches[1]))


def _node_sums(trainer: DistributedTrainer) -> list[np.ndarray]:
    """Copies of the node accumulator each step aggregates."""
    seen: list[np.ndarray] = []
    inner = trainer.scheme.aggregate_node_sums

    def spy(node_acc, **kwargs):
        seen.append(node_acc.copy())
        return inner(node_acc, **kwargs)

    trainer.scheme.aggregate_node_sums = spy
    return seen


@st.composite
def node_sum_cases(draw):
    nodes, gpus = draw(st.sampled_from([(1, 2), (2, 2), (2, 3), (3, 1)]))
    dims = [draw(st.integers(2, 40)) for _ in range(draw(st.integers(2, 4)))]
    local = draw(st.integers(1, 3))
    slab_bytes = draw(st.sampled_from([1, 256, 1 << 20]))
    return nodes, gpus, dims, local, slab_bytes


@settings(max_examples=20, deadline=None)
@given(case=node_sum_cases(), seed=st.integers(0, 2**16))
def test_mlp_replay_into_fold_sinks_is_the_tape(case, seed):
    """The node-sum route: every destination a fold sink, every weight's
    product folded slab by slab during the backward.  One trainer replays
    from its second step; the other gets a fresh model every step, so it
    runs the tape each time.  Node sums, losses and parameters agree."""
    nodes, gpus, dims, local, slab_bytes = case
    classes = dims.pop()
    with mock.patch.object(trainer_module, "_SINK_BYTES", 0), mock.patch.object(
        trainer_module, "_SLAB_BYTES", slab_bytes
    ):
        trainers = []
        for _ in range(2):
            network = build_cluster("tencent", nodes, gpus_per_node=gpus)
            scheme = build_scheme("mstopk", network, density=0.3)
            model = MLPClassifier(dims[0], tuple(dims[1:]), classes)
            trainers.append(DistributedTrainer(model, scheme, SGD(lr=0.05, momentum=0.9), seed=seed))
    replaying, taping = trainers
    assert replaying._aggregate == "aggregate_node_sums"
    sums = [_node_sums(trainer) for trainer in trainers]
    rng, programs = np.random.default_rng(seed), set()
    for _ in range(3):
        batches = [
            (rng.normal(size=(local, dims[0])).astype(np.float32), rng.integers(0, classes, size=local))
            for _ in range(nodes * gpus)
        ]
        taping.model = MLPClassifier(dims[0], tuple(dims[1:]), classes)
        assert replaying.train_step(batches) == taping.train_step(batches)
        programs.add(replaying.model._programs._program)
    assert len(programs) == 1  # recorded by the first step, replayed by the others
    for got, want in zip(*sums):
        assert got.tobytes() == want.tobytes()
    for name, value in taping.params.items():
        assert replaying.params[name].tobytes() == value.tobytes()


def test_negative_control_two_swapped_kernels_fail_the_bit_test():
    """The comparison sees a replay that runs its kernels out of order:
    the copy of the batch swapped with the last weight gradient, which
    then reads the previous call's buffers."""
    rng = np.random.default_rng(3)
    build = lambda: SmallConvNet(3, (4, 6), 4, 8)  # noqa: E731
    params = build().init_params(new_rng(3))
    calls = _Calls(build, params, sorted(params))
    batches = [(rng.normal(size=(4, 3, 3, 8, 8)), rng.integers(0, 4, size=(4, 3))) for _ in range(3)]
    model, out = build(), calls.destinations(4)
    for batch in batches[:2]:
        replayed = _copied(model.loss_and_grad_workers(params, *batch, out))
    assert_same_result(replayed, calls.taped(batches[1]))

    program = model._programs._program
    program._run[0], program._run[-1] = program._run[-1], program._run[0]
    swapped = _copied(model.loss_and_grad_workers(params, *batches[2], out))
    assert model._programs._program is program  # a replay, of the swapped program
    with pytest.raises(AssertionError):
        assert_same_result(swapped, calls.taped(batches[2]))

