"""``train-comm`` at its full shape, bit for bit, in both dtypes.

The benchmark's ``train-comm`` workload (a 304 144-parameter MLP on 2 x 8
workers, HiTopKComm + MSTopK) is the only run of the full hierarchical
shape.  Its loss in ``benchmarks/e2e/reference.json`` was recorded in
float64; the MLP trains in float32, which the benchmark judges in its 5 %
tolerance tier.  Exactness is held here instead, through the benchmark's
own setup and closed loop: a float64 MLP still reproduces the recorded
loss bit for bit, and the float32 one the loss pinned below.
"""

import numpy as np
import pytest

from benchmarks.e2e import train
from benchmarks.e2e.spec import SIZES, load_reference
from repro.models.nn.mlp import MLPClassifier

SEED = 7
SIZES_FULL = SIZES["full"]["train-comm"]
#: Mean loss over steps 72-79 of the float32 run at seed 7 (within
#: 1.4e-4 of the float64 loss, far inside the benchmark's 5 % tier).
FLOAT32_LOSS = 1.7128487331792712


def _final_loss(tmp_path) -> float:
    ctx = train.setup("train-comm", SEED, SIZES_FULL, tmp_path)
    # seconds=0: exactly the workload's check_steps steps, no more.
    return train._run(ctx, 0.0)["final_loss"]


@pytest.mark.parametrize(
    "dtype, want",
    [
        (np.float64, load_reference()["full"]["train-comm"][str(SEED)]["loss"]),
        (np.float32, FLOAT32_LOSS),
    ],
    ids=["float64-recorded", "float32-pinned"],
)
def test_the_full_shape_reproduces_its_loss_exactly(tmp_path, monkeypatch, dtype, want):
    monkeypatch.setattr(MLPClassifier, "dtype", dtype)
    assert _final_loss(tmp_path) == want
