"""The recorded-pass cache (:class:`repro.models.autodiff.Programs`).

A model records its first call at a key and replays later calls at that
key.  Everything a kernel's shape, operands or branch depends on is in
the key, so each of these records anew: a new batch shape, another
input or label dtype, a step with a padded label where there was none,
a parameter array replaced (not updated in place), another destination
buffer, another model instance.
A parameter updated in place, fresh views of the same destination rows
and a new batch of the same shape replay.  A model keeps one program: a
call at another key drops it, and the buffers it was recorded against,
before recording, so a retired trainer's buffers die with it; every
model of a whole Fig. 10 / Table 2 / elastic-churn run records once per
trainer built around it and holds one program; a replay still runs the
cross-entropy's label check; and every program's arena starts on a
64-byte boundary.
"""

from __future__ import annotations

import gc
import weakref
from unittest import mock

import numpy as np
import pytest

from repro.models import autodiff
from repro.models.nn.convnet import SmallConvNet
from repro.models.nn.mlp import MLPClassifier
from repro.models.nn.transformer import TinyTransformer
from repro.utils.partition import FlatLayout
from repro.utils.seeding import new_rng


class _Counted:
    """Counts the tape passes (records) of the calls made under it."""

    def __init__(self, monkeypatch):
        self.passes, inner = 0, autodiff.tape_pass

        def counted(*args):
            self.passes += 1
            return inner(*args)

        monkeypatch.setattr(autodiff, "tape_pass", counted)

    def recorded(self, call) -> bool:
        before = self.passes
        call()
        return self.passes > before


@pytest.fixture
def mlp():
    model = MLPClassifier(input_dim=5, hidden=(7,), num_classes=3)
    params = model.init_params(new_rng(0))
    rng = np.random.default_rng(0)

    def batch(workers=2, local=4, padded=False):
        ys = rng.integers(0, 3, size=(workers, local))
        if padded:
            ys[0, -1] = -1
        return rng.normal(size=(workers, local, 5)), ys

    return model, params, batch


def test_a_new_batch_of_the_same_shape_replays(mlp, monkeypatch):
    model, params, batch = mlp
    counted = _Counted(monkeypatch)
    assert counted.recorded(lambda: model.loss_and_grad_workers(params, *batch()))
    assert not counted.recorded(lambda: model.loss_and_grad_workers(params, *batch()))


@pytest.mark.parametrize(
    "change",
    ["shape", "workers", "padded", "dtype", "label-dtype"],
)
def test_what_a_kernel_depends_on_records_anew(mlp, monkeypatch, change):
    """Each change records anew, and the model keeps only the new
    program: the first key records again."""
    model, params, batch = mlp
    counted = _Counted(monkeypatch)
    first = batch()
    model.loss_and_grad_workers(params, *first)
    xs, ys = {
        "shape": lambda: batch(local=3),
        "workers": lambda: batch(workers=3),
        "padded": lambda: batch(padded=True),
        "dtype": lambda: (batch()[0].astype(np.float32), batch()[1]),
        "label-dtype": lambda: (batch()[0], batch()[1].astype(np.int32)),
    }[change]()
    assert counted.recorded(lambda: model.loss_and_grad_workers(params, xs, ys))
    assert counted.recorded(lambda: model.loss_and_grad_workers(params, *first))


def test_a_replaced_parameter_records_anew_and_an_updated_one_replays(mlp, monkeypatch):
    model, params, batch = mlp
    counted = _Counted(monkeypatch)
    xs, ys = batch()
    model.loss_and_grad_workers(params, xs, ys)
    params["fc0.weight"] -= 0.5  # in place, as SGD steps: the same buffer
    assert not counted.recorded(lambda: model.loss_and_grad_workers(params, xs, ys))
    want = MLPClassifier(input_dim=5, hidden=(7,), num_classes=3).loss_and_grad_workers(params, xs, ys)
    got = model.loss_and_grad_workers(params, xs, ys)
    assert got[0].tobytes() == want[0].tobytes()
    assert all(got[1][name].tobytes() == want[1][name].tobytes() for name in params)

    params["fc0.weight"] = params["fc0.weight"].copy()  # another buffer, same values
    assert counted.recorded(lambda: model.loss_and_grad_workers(params, xs, ys))


def test_destinations_are_bound_by_buffer_not_by_view(mlp, monkeypatch):
    """Fresh views of the same rows replay; another buffer records
    anew."""
    model, params, batch = mlp
    layout = FlatLayout.of(params)
    counted = _Counted(monkeypatch)
    xs, ys = batch()
    block = np.zeros((2, layout.dim), dtype=layout.dtype)
    model.loss_and_grad_workers(params, xs, ys, layout.views(block))
    out = layout.views(block)
    assert not counted.recorded(lambda: model.loss_and_grad_workers(params, xs, ys, out))
    _, grads, _ = model.loss_and_grad_workers(params, xs, ys, out)
    assert all(grads[name] is out[name] for name in params)

    other = np.zeros_like(block)
    assert counted.recorded(lambda: model.loss_and_grad_workers(params, xs, ys, layout.views(other)))


def test_another_model_instance_records_anew(mlp, monkeypatch):
    model, params, batch = mlp
    counted = _Counted(monkeypatch)
    xs, ys = batch()
    model.loss_and_grad_workers(params, xs, ys)
    twin = MLPClassifier(input_dim=5, hidden=(7,), num_classes=3)
    assert counted.recorded(lambda: twin.loss_and_grad_workers(params, xs, ys))
    assert not counted.recorded(lambda: model.loss_and_grad_workers(params, xs, ys))


def test_gradients_without_a_destination_are_fresh_copies(mlp):
    """A replay's own buffers are overwritten by the next call: what it
    returns outside the caller's destinations is copied."""
    model, params, batch = mlp
    model.loss_and_grad_workers(params, *batch())
    first = model.loss_and_grad_workers(params, *batch())
    kept = {name: grad.copy() for name, grad in first[1].items()}
    losses = first[0].copy()
    model.loss_and_grad_workers(params, *batch())
    assert first[0].tobytes() == losses.tobytes()
    assert all(first[1][name].tobytes() == kept[name].tobytes() for name in params)


@pytest.mark.parametrize("build", [
    lambda: (MLPClassifier(input_dim=4, hidden=(6,), num_classes=3), (2, 3, 4), (2, 3)),
    lambda: (SmallConvNet(2, (3, 4), 3, 4), (2, 3, 2, 4, 4), (2, 3)),
    lambda: (TinyTransformer(3, 4, 5, 4), (2, 3, 4), (2, 3, 4)),
], ids=["mlp", "cnn", "transformer"])
def test_a_replay_still_rejects_a_label_out_of_range(build, monkeypatch):
    """The cross-entropy's label check reads the labels: a replay runs
    it, with the tape's one-line error, and the next valid call is
    unharmed."""
    counted = _Counted(monkeypatch)
    model, x_shape, y_shape = build()
    params = model.init_params(new_rng(1))
    rng = np.random.default_rng(1)
    xs = rng.integers(0, 3, size=x_shape) if isinstance(model, TinyTransformer) else rng.normal(size=x_shape)
    ys = rng.integers(0, 3, size=y_shape)
    want = model.loss_and_grad_workers(params, xs, ys)[0].copy()
    bad = ys.copy()
    bad.flat[-1] = 3
    with pytest.raises(ValueError, match=r"label 3 is out of range for 3 classes \(logits") as caught:
        assert not counted.recorded(lambda: model.loss_and_grad_workers(params, xs, bad))
    assert "\n" not in str(caught.value)
    assert counted.passes == 1  # the first call: one pass
    assert model.loss_and_grad_workers(params, xs, ys)[0].tobytes() == want.tobytes()


def test_every_trainer_of_a_fig10_table2_and_elastic_churn_run_records_once(monkeypatch, capsys):
    """Every model of the fast Fig. 10, Table 2 and elastic-churn runs
    records exactly once per trainer built around it (one in Fig. 10 and
    Table 2; one per membership epoch under churn) and never holds more
    than one program: the rest of its calls replay, and no program it
    dropped is still alive."""
    from repro.experiments import elastic_churn, fig10_convergence, table2_validation
    from repro.train import trainer as trainer_module

    trainers, calls, programs = {}, {}, {}
    init, run = trainer_module.DistributedTrainer.__init__, autodiff.Programs.run

    def built(self, model, *args, **kwargs):
        init(self, model, *args, **kwargs)
        trainers[model._programs] = trainers.get(model._programs, 0) + 1  # kept alive: no id is reused

    def counted(self, *args, **kwargs):
        result = run(self, *args, **kwargs)
        calls[self] = calls.get(self, 0) + 1
        held = programs.setdefault(self, [])
        if not held or held[-1]() is not self._program:
            held.append(weakref.ref(self._program))
        assert sum(program() is not None for program in held) == 1
        return result

    monkeypatch.setattr(trainer_module.DistributedTrainer, "__init__", built)
    monkeypatch.setattr(autodiff.Programs, "run", counted)
    fig10_convergence.main(fast=True)
    table2_validation.main(fast=True)
    elastic_churn.main(fast=True)
    capsys.readouterr()
    assert len(programs) >= 18 and max(trainers.values()) > 1
    assert {cache: len(held) for cache, held in programs.items()} == trainers
    assert sum(calls.values()) >= 8 * sum(trainers.values())


def test_a_call_at_another_key_drops_the_kept_program_and_its_buffers(mlp):
    """The kept program holds the parameters and destinations it was
    recorded against; a call on parameters in other buffers (a new
    trainer around the model, a restored checkpoint) drops it first."""
    model, params, batch = mlp
    copies = {name: value.copy() for name, value in params.items()}
    model.loss_and_grad_workers(copies, *batch())
    retired = weakref.ref(copies["fc0.weight"]), weakref.ref(model._programs._program)
    del copies
    gc.collect()
    assert all(ref() is not None for ref in retired)
    model.loss_and_grad_workers(params, *batch())
    gc.collect()
    assert all(ref() is None for ref in retired)


def test_an_elastic_rebuild_frees_the_retired_trainers(tmp_path):
    """``ElasticTrainer`` builds a new ``DistributedTrainer`` around the
    same model at every membership change: once the run is over only the
    live trainer's buffers are reachable, the kept programs included."""
    from repro.elastic.elastic_trainer import ElasticTrainer
    from repro.elastic.events import ChurnEvent, TraceSchedule
    from repro.train import trainer as trainer_module
    from repro.train.synthetic import make_spiral_classification

    made, init = [], trainer_module.DistributedTrainer.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append((weakref.ref(self), weakref.ref(self.params["fc0.weight"])))

    x, y = make_spiral_classification(512, num_classes=4, rng=new_rng(3))
    revocations = [ChurnEvent(8, "revoke", warned=False), ChurnEvent(16, "revoke", warned=False)]
    with mock.patch.object(trainer_module.DistributedTrainer, "__init__", tracked):
        elastic = ElasticTrainer(
            MLPClassifier(input_dim=2, hidden=(12,), num_classes=4),
            scheme="mstopk",
            density=0.1,
            num_nodes=3,
            gpus_per_node=2,
            checkpoint_every=10,
            checkpoint_dir=tmp_path,
            seed=4,
        )
        elastic.run(x, y, iterations=24, local_batch=8, schedule=TraceSchedule(revocations))
    gc.collect()
    alive = [(trainer(), weight()) for trainer, weight in made]
    assert len(alive) == 3 and alive[-1][0] is elastic.trainer
    assert alive[:-1] == [(None, None)] * 2  # both alive while programs outlived them


class _Arenas:
    """Records the base address of every arena a program is bound to."""

    def __init__(self, monkeypatch):
        self.bases, place = [], autodiff._place

        def spied(value, arena, offsets):
            self.bases.append(arena.ctypes.data)
            return place(value, arena, offsets)

        monkeypatch.setattr(autodiff, "_place", spied)


@pytest.mark.parametrize("build", [
    lambda: (MLPClassifier(input_dim=4, hidden=(6,), num_classes=3), (4,), ()),
    lambda: (SmallConvNet(2, (3, 4), 3, 4), (2, 4, 4), ()),
    lambda: (TinyTransformer(3, 4, 5, 4), (4,), (4,)),
], ids=["mlp", "cnn", "transformer"])
def test_every_recorded_arena_starts_on_a_cache_line(build, monkeypatch):
    """Every buffer sits a multiple of 64 bytes into its program's arena,
    and the arena starts on a 64-byte boundary wherever the heap puts it:
    over batch shapes and worker counts that record arenas of other sizes,
    and over parameters in new buffers (what a new trainer brings)."""
    arenas, counted = _Arenas(monkeypatch), _Counted(monkeypatch)
    model, x_tail, y_tail = build()
    rng = np.random.default_rng(2)
    for workers, local, seed in [(1, 2, 0), (2, 3, 0), (3, 1, 1), (4, 5, 2), (2, 3, 3)]:
        params = model.init_params(new_rng(seed))
        x_shape, y_shape = (workers, local, *x_tail), (workers, local, *y_tail)
        if isinstance(model, TinyTransformer):
            xs = rng.integers(0, 3, size=x_shape)
        else:
            xs = rng.normal(size=x_shape)
        model.loss_and_grad_workers(params, xs, rng.integers(0, 3, size=y_shape))
    assert counted.passes >= 5  # each call records (the CNN in several passes)
    assert arenas.bases and [base % 64 for base in arenas.bases] == [0] * len(arenas.bases)


def test_trainers_rebuilt_around_one_model_record_aligned_arenas(monkeypatch):
    """Each new trainer around the model records a program of its own;
    every one of those arenas starts on a 64-byte boundary."""
    from repro.api.registry import build_cluster, build_scheme
    from repro.optim.sgd import SGD
    from repro.train.trainer import DistributedTrainer

    arenas, counted = _Arenas(monkeypatch), _Counted(monkeypatch)
    model = MLPClassifier(input_dim=2, hidden=(12,), num_classes=4)
    rng = np.random.default_rng(3)
    shapes = [(1, 2), (2, 2), (3, 2), (1, 4), (2, 1)]
    for nodes, gpus in shapes:
        network = build_cluster("tencent", nodes, gpus_per_node=gpus)
        trainer = DistributedTrainer(model, build_scheme("mstopk", network, density=0.1), optimizer=SGD(lr=0.1))
        for _ in range(2):
            batches = [(rng.normal(size=(4, 2)), rng.integers(0, 4, size=4)) for _ in range(nodes * gpus)]
            trainer.train_step(batches)
    assert counted.passes == len(shapes)
    assert arenas.bases and [base % 64 for base in arenas.bases] == [0] * len(arenas.bases)
