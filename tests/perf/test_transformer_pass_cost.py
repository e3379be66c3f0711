"""Heap gates for the Transformer's blocked pass (Fig. 10, Table 2).

A Fig. 10 step of the Transformer — 8 workers x 16 sequences of 10
tokens — is one ``loss_and_grad_workers`` call (the bits are pinned by
``tests/property/test_blocked_transformer.py``).  The tape's pass holds
≈ 13 MB of transients at its peak, so in a process that has freed
nothing that large glibc would map, fault in and hand back that memory
on every call.  Measured in fresh processes, one BLAS thread, 60 calls
each (2-core Xeon): ≈ 3 200 minor faults a pass and a 14.7–18.2 ms
median, against 2 600 faults and 15.9–20.1 ms for the eight per-row
calls it replaced; with the call's untouched allocate-and-free
(``autodiff.keep_heap``) 0.3 faults and 6.4–7.6 ms.  Since the pass is
recorded once and replayed into the program's buffers, a warmed call
allocates none of that, at any width: at 16 workers x 64 sequences,
where ``keep_heap`` cannot reach, the tape took ≈ 19 800–20 800 faults a call.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys

import pytest

#: One Transformer step's model work (``argv``: workers, sequences) in a
#: process that has freed nothing large: page faults per warmed call.
FRESH_PROCESS = """
import resource, sys
import numpy as np
from repro.api.registry import build_workload
from repro.utils.seeding import new_rng

workers, local = int(sys.argv[1]), int(sys.argv[2])
model = build_workload("transformer", num_samples=16, rng=new_rng(0)).model
params = model.init_params(new_rng(0))
rng = np.random.default_rng(1)
xs = rng.integers(1, 32, size=(workers, local, 10))
ys = rng.integers(0, 32, size=(workers, local, 10))
out = {name: np.zeros((workers, *value.shape)) for name, value in params.items()}
for _ in range(3):
    model.loss_and_grad_workers(params, xs, ys, out)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    model.loss_and_grad_workers(params, xs, ys, out)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


def _faults_per_call(workers: int, local: int) -> float:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-c", FRESH_PROCESS, str(workers), str(local)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return float(done.stdout)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins a glibc malloc behaviour")
def test_blocked_pass_keeps_its_heap_in_a_process_that_has_freed_nothing_large():
    assert _faults_per_call(8, 16) < 100  # measured 0.3; ≈ 3 200 without keep_heap


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins a glibc malloc behaviour")
def test_a_wide_replay_takes_no_page_faults_where_keep_heap_cannot_reach():
    """The tape faulted ≈ 19 800 pages a call at this shape (138 ms); a
    replay reuses its buffers (0.2 faults, 71 ms; 2-core Xeon, one BLAS
    thread)."""
    assert _faults_per_call(16, 64) < 100
