"""The aggregation contract every registered scheme keeps.

A scheme takes one ``(world size, d)`` gradient matrix, leaves it as it
was, and returns one read-only aggregate; a sparse scheme checks every
selection before it writes the first residual.
"""

import numpy as np
import pytest

from repro.api.registry import SCHEMES, build_cluster, build_scheme
from repro.collectives.sparse import SparseVector
from repro.comm.gtopk import GlobalTopK
from repro.comm.hitopkcomm import HiTopKComm
from repro.comm.naive_allgather import NaiveAllGather
from repro.compression.exact_topk import ExactTopK
from repro.utils.seeding import new_rng

WORLD, D = 8, 203  # 2 nodes x 4 GPUs; 4 does not divide 203

#: Inputs that are not a ``(WORLD, d)`` array.
NOT_A_MATRIX = {
    "list": lambda g: list(g),
    "1-D": lambda g: g[0],
    "3-D": lambda g: g[None],
    "rows-over": lambda g: np.vstack([g, g[:1]]),
    "rows-short": lambda g: g[1:],
}


@pytest.fixture(scope="module")
def network():
    return build_cluster("tencent", 2, gpus_per_node=4)


def _grads(seed, dtype=np.float64):
    return np.random.default_rng(seed).standard_normal((WORLD, D)).astype(dtype)


@pytest.mark.parametrize("name", SCHEMES.available())
class TestEveryScheme:
    @pytest.mark.parametrize("given", list(NOT_A_MATRIX))
    def test_anything_but_the_matrix_is_one_line(self, network, name, given):
        scheme = build_scheme(name, network, density=0.05)
        with pytest.raises(ValueError, match=rf"world size {WORLD}, d\) gradient matrix, got") as err:
            scheme.aggregate(NOT_A_MATRIX[given](_grads(1)), rng=new_rng(0))
        assert "\n" not in str(err.value)
        assert len(getattr(scheme, "ef", None) or ()) == 0

    def test_the_aggregate_is_read_only(self, network, name):
        result = build_scheme(name, network, density=0.05).aggregate(_grads(2), rng=new_rng(0))
        assert result.aggregate.shape == (D,)
        with pytest.raises(ValueError, match="read-only"):
            result.aggregate[0] = 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_the_matrix_is_left_byte_identical(self, network, name, dtype):
        scheme = build_scheme(name, network, density=0.05)
        rng = new_rng(0)
        for step in range(3):
            mat = _grads(step, dtype)
            kept = mat.tobytes()
            assert scheme.aggregate(mat, rng=rng).aggregate.dtype == dtype
            assert mat.tobytes() == kept, step


class FlawedShard(ExactTopK):
    """Exact top-k whose selection for shard 2 is malformed once armed."""

    def __init__(self, flaw: str) -> None:
        super().__init__()
        self.flaw, self.armed = flaw, False

    def select_batch(self, xs, ks, *, rng=None):
        selections = super().select_batch(xs, ks, rng=rng)
        if self.armed:
            sent = selections[2]
            if self.flaw == "length":
                selections[2] = SparseVector(sent.values, sent.indices, sent.length + 1)
            else:
                selections[2] = SparseVector(sent.values.astype(np.float32), sent.indices, sent.length)
        return selections


@pytest.mark.parametrize("flaw", ["length", "dtype"])
@pytest.mark.parametrize("scheme_type", [HiTopKComm, NaiveAllGather, GlobalTopK])
def test_a_malformed_selection_writes_no_residual(scheme_type, flaw):
    """1 node x 4 GPUs, d = 40: shard 2 of 4 (10 elements on HiTopKComm,
    40 on the flat schemes) comes back too long or in another dtype.  The
    step is refused in one line, and every residual keeps its bytes."""
    compressor = FlawedShard(flaw)
    scheme = scheme_type(build_cluster("tencent", 1, gpus_per_node=4), density=0.2, compressor=compressor)
    grads = np.random.default_rng(5).standard_normal((2, 4, 40))
    scheme.aggregate(grads[0], rng=new_rng(0))
    kept = {key: scheme.ef.residual(key).tobytes() for key in scheme.ef.keys()}
    compressor.armed = True
    with pytest.raises(ValueError, match="shard 2: sent (length|values dtype)") as err:
        scheme.aggregate(grads[1], rng=new_rng(1))
    assert "\n" not in str(err.value)
    assert {key: scheme.ef.residual(key).tobytes() for key in scheme.ef.keys()} == kept
