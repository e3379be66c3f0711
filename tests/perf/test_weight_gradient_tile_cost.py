"""Cost gate for the weight-gradient tile (``train-comm``).

One backward GEMM used to be the largest single cost of a ``train-comm``
step: ``fc1.weight``'s 16 per-worker ``(512, 2) @ (2, 512)`` products,
written by BLAS straight into the ``(W, d)`` gradient block (5.5–6.0 ms
of a 17–18 ms instrumented step).  A product larger than
``autodiff._TILE_BYTES`` is now computed into one reused tile and copied
into the block, in the same bits (``tests/models/test_autodiff.py``).
This file pins the cost at the benchmark's shape —
``MLPClassifier(64, (512, 512), 16)``, W = 16 (2 nodes x 8 GPUs), B = 2 —
against the same call with the tile bound patched out, in the same
process.

It times the kernel in its context: a warmed ``gradient_rows`` call
followed by one pass over the block the way HiTopKComm's intra-node
reduce-scatter reads it.  The gain is a cold destination's, so before
every timed step an untimed pass over a 64 MiB buffer stands for what
the rest of a trainer step and the host's other tenants stream through
the cache.  Without it the block can stay cached from one step to the
next when the host is quiet: the bare 16 GEMMs then read 1.00–1.08x for
minutes at a time (2-core Xeon, 105 MiB shared L3), against 1.5–1.8x
with a 32 or 160 MB pass between them.
"""

from __future__ import annotations

import sys
from unittest import mock

import numpy as np

from repro.collectives.reduce_scatter import matrix_reduce_scatter
from repro.models import autodiff
from repro.models.nn.mlp import MLPClassifier
from repro.utils.partition import FlatLayout, gradient_rows
from repro.utils.seeding import new_rng
from tests.conftest import speedup

#: ``train-comm``: ``tencent`` 2 x 8, local batch 2.
NODES, GPUS, LOCAL = 2, 8, 2
EVICT_BYTES = 64 << 20


def test_tiled_weight_gradients_beat_the_gemms_into_the_cold_block():
    model = MLPClassifier(64, (512, 512), 16)
    params = model.init_params(new_rng(0))
    rng = new_rng(1)
    workers = NODES * GPUS
    xs = rng.normal(size=(workers, LOCAL, 64))
    ys = rng.integers(0, 16, size=(workers, LOCAL))
    batches = list(zip(xs, ys))
    layout = FlatLayout.of(params)
    out = np.zeros((workers, layout.dim), dtype=layout.dtype)
    node_acc = np.empty((NODES, layout.dim), dtype=layout.dtype)
    elsewhere = np.ones(EVICT_BYTES // 4, dtype=np.float32)

    def step():
        gradient_rows(model, params, batches, out, layout)
        for node in range(NODES):
            matrix_reduce_scatter(out[node * GPUS : (node + 1) * GPUS], out=node_acc[node])

    def untiled():
        with mock.patch.object(autodiff, "_TILE_BYTES", sys.maxsize):
            step()

    step()
    tiled = out.copy()
    untiled()
    np.testing.assert_array_equal(out, tiled)
    ratio = speedup(untiled, step, rounds=11, reps=5, between=elsewhere.sum)
    assert ratio >= 1.10, ratio  # measured 1.2–1.4 (fc1's GEMM ≈ 5.8 -> 3.3 ms)
