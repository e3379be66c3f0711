"""Allocation and call-count gates for recorded passes (``models/autodiff.py``,
``Programs``).

A model's first call at a shape runs the tape and records it; every
later call copies its batch into the program's buffers and replays the
kernels into them.  So a warmed replay allocates nothing of activation
size — what ``tracemalloc`` sees is numpy's own iteration buffers and
the returned losses — and the first call costs the tape's peak plus the
log of kernels (its Python objects).  Shapes: the ``train-compute`` step (8 workers x 16
CNN samples), a Fig. 10 Transformer step (8 x 16 sequences of 10
tokens) and a small MLP step.  A replay also runs less Python than the
per-row tape the models used to ship, even on a one-worker block, where
the tape's bookkeeping once made a blocked call dearer than the per-row
body (counted with ``cProfile``, which no host load moves).
"""

from __future__ import annotations

import cProfile
import pstats

import numpy as np
import pytest

from repro.api.registry import build_workload
from repro.models import autodiff
from repro.models.nn.convnet import SmallConvNet
from repro.models.nn.mlp import MLPClassifier
from repro.utils.seeding import new_rng
from tests.conftest import peak_bytes
from tests.models import row_oracles
from tests.test_import_graph import fresh


def _cnn(rng):
    model = SmallConvNet(3, (6, 12), 4, 12)
    xs, ys = rng.normal(size=(8, 16, 3, 12, 12)), rng.integers(0, 4, size=(8, 16))
    # conv1's output for one pass of two workers: (6, 2 * 16, 12, 12) float64.
    return model, xs, ys, 6 * 32 * 12 * 12 * 8


def _transformer(rng):
    model = build_workload("transformer", num_samples=16, rng=new_rng(0)).model
    xs, ys = rng.integers(1, 32, size=(8, 16, 10)), rng.integers(0, 32, size=(8, 16, 10))
    # One (W, B, T, d_model) float64 activation.
    return model, xs, ys, 8 * 16 * 10 * model.d_model * 8


def _mlp(rng):
    model = MLPClassifier(input_dim=64, hidden=(128, 128), num_classes=10)
    xs, ys = rng.normal(size=(8, 16, 64)), rng.integers(0, 10, size=(8, 16))
    # One (W, B, hidden) float32 activation.
    return model, xs, ys, 8 * 16 * 128 * 4


@pytest.mark.parametrize("case", [_cnn, _transformer, _mlp], ids=["cnn", "transformer", "mlp"])
def test_a_warmed_replay_allocates_nothing_of_activation_size(rng, case):
    model, xs, ys, activation = case(rng)
    params = model.init_params(new_rng(0))
    out = {name: np.zeros((len(xs), *value.shape), value.dtype) for name, value in params.items()}
    model.loss_and_grad_workers(params, xs, ys, out)  # the first call records
    peak = peak_bytes(lambda: model.loss_and_grad_workers(params, xs, ys, out))
    # Measured 0.11 MB (CNN), MLP and Transformer below it: numpy's
    # iteration buffers for strided or mixed-dtype operands.
    assert peak < activation, (peak, activation)


def test_the_first_call_costs_the_tape_and_its_log(rng):
    """A first call is the tape plus the log of its kernels, and the log
    of one pass does not hold that pass's buffers: its peak stays near
    that of the same call on the tape unlogged (``autodiff._tape_call``,
    which ``tests/perf/test_conv_kernel_cost.py`` holds to the per-row
    peak; measured 1.06x at the ``train-compute`` shape, 4 passes of 2
    workers: the log's Python objects)."""
    model, xs, ys, _ = _cnn(rng)
    params = model.init_params(new_rng(0))
    tape = peak_bytes(lambda: autodiff._tape_call(model._logits, params, xs, ys, {}, model._per_pass(xs)))
    first = peak_bytes(lambda: SmallConvNet(3, (6, 12), 4, 12).loss_and_grad_workers(params, xs, ys))
    assert first <= 1.15 * tape, (first, tape)


def test_reading_an_address_grows_no_interpreter_table():
    """A first CNN call reads some 900 addresses.  Read through
    ``__array_interface__``, each interned and freed a string, and every
    ~32 000 reads in a fresh interpreter (more in a long one) the
    interpreter rebuilt its table of interned strings: a 0.96 MB block
    (1.9 MB in a long test run) inside whichever call made the read,
    which the gate above then counted as the log's."""
    peak = fresh(
        "import tracemalloc\n"
        "import numpy as np\n"
        "from repro.models import autodiff\n"
        "a = np.zeros((6, 32, 8, 8))\n"
        "tracemalloc.start()\n"
        "for _ in range(100_000):\n"
        "    autodiff._address(a)\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    assert int(peak) < 100_000, peak


def _python_calls(call) -> int:
    """Function calls, Python and builtin, that one ``call()`` makes."""
    profile = cProfile.Profile()
    profile.runcall(call)
    return pstats.Stats(profile).total_calls


def test_a_warmed_one_worker_call_makes_fewer_python_calls_than_the_per_row_body(rng):
    """One CNN batch of Fig. 10's shape as a one-worker block: a warmed
    call replays (measured 171 calls) where the per-row body builds its
    tape (739)."""
    model, xs, ys, _ = _cnn(rng)
    x, y = xs[0], ys[0]
    params = model.init_params(new_rng(0))
    out = {name: np.zeros((1, *value.shape)) for name, value in params.items()}
    rows = {name: dest[0] for name, dest in out.items()}
    blocked = lambda: model.loss_and_grad_workers(params, x[None], y[None], out)  # noqa: E731
    per_row = lambda: row_oracles.cnn_loss_and_grad(model, params, x, y, rows)  # noqa: E731
    blocked()  # the first call records
    per_row()
    replayed, taped = _python_calls(blocked), _python_calls(per_row)
    assert replayed < taped, (replayed, taped)
