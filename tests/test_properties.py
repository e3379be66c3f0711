"""Cross-cutting property tests.

These invariants span subsystems — every compressor, every scheme —
and are the contracts the distributed pipeline is built on:

1. any ``TopKCompressor`` returns exactly ``k`` unique in-range indices
   whose values match the source (the fixed-size-wire contract);
2. any ``CommScheme`` produces rank-identical outputs (the synchronous
   SGD consistency contract, paper Eq. 1);
3. error feedback conserves gradient mass for every compressor;
4. dense schemes are permutation-equivariant in their inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import build_scheme
from repro.cluster.cloud_presets import make_cluster
from repro.compression.base import TopKCompressor
from repro.compression.dgc import DGCTopK
from repro.compression.error_feedback import ErrorFeedback
from repro.compression.exact_topk import ExactTopK
from repro.compression.mstopk import MSTopK
from repro.compression.randomk import RandomK
from repro.utils.seeding import new_rng

ALL_COMPRESSORS: list[TopKCompressor] = [
    ExactTopK("sort"),
    ExactTopK("argpartition"),
    DGCTopK(sample_fraction=0.2),
    MSTopK(n_samplings=20),
    RandomK(),
]

ALL_SCHEME_NAMES = ("dense", "dense-ring", "2dtar", "topk", "mstopk", "naiveag-mstopk")


class TestCompressorContract:
    @pytest.mark.parametrize("compressor", ALL_COMPRESSORS, ids=lambda c: c.name)
    @given(d=st.integers(4, 600), frac=st.integers(1, 99), seed=st.integers(0, 20))
    @settings(max_examples=25, deadline=None)
    def test_exactly_k_unique_in_range(self, compressor, d, frac, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=d)
        k = max(1, (d * frac) // 100)
        sv = compressor.select(x, k, rng=rng)
        assert sv.nnz == k
        assert len(np.unique(sv.indices)) == k
        assert sv.indices.min() >= 0 and sv.indices.max() < d

    @pytest.mark.parametrize(
        "compressor",
        [c for c in ALL_COMPRESSORS if not isinstance(c, RandomK)],
        ids=lambda c: c.name,
    )
    def test_values_are_source_entries(self, compressor, rng):
        x = rng.normal(size=300)
        sv = compressor.select(x, 30, rng=rng)
        np.testing.assert_array_equal(sv.values, x[sv.indices])

    @pytest.mark.parametrize("compressor", ALL_COMPRESSORS, ids=lambda c: c.name)
    def test_error_feedback_mass_conservation(self, compressor, rng):
        ef = ErrorFeedback()
        d, k = 120, 20
        total_grad = np.zeros(d)
        total_sent = np.zeros(d)
        for _ in range(6):
            g = rng.normal(size=d)
            total_grad += g
            corrected = ef.apply("w", g)
            sent = compressor.select(corrected, k, rng=rng)
            ef.update("w", corrected, sent)
            total_sent += sent.to_dense()
        np.testing.assert_allclose(
            total_sent + ef.residual("w"), total_grad, atol=1e-9
        )


class TestSchemeContract:
    @pytest.mark.parametrize("name", ALL_SCHEME_NAMES)
    @given(
        m=st.integers(1, 3),
        n=st.integers(1, 3),
        d=st.integers(8, 80),
        seed=st.integers(0, 10),
    )
    @settings(max_examples=10, deadline=None)
    def test_outputs_rank_identical(self, name, m, n, d, seed):
        rng = np.random.default_rng(seed)
        net = make_cluster(m, "tencent", gpus_per_node=n)
        scheme = build_scheme(name, net, density=0.25)
        grads = [rng.normal(size=d) for _ in range(m * n)]
        result = scheme.aggregate(grads, rng=new_rng(seed))
        assert len(result.outputs) == m * n
        for out in result.outputs[1:]:
            np.testing.assert_array_equal(out, result.outputs[0])
        if m * n > 1:
            assert result.breakdown.total > 0

    @pytest.mark.parametrize("name", ["dense", "dense-ring", "2dtar"])
    def test_dense_schemes_permutation_equivariant(self, name, rng):
        # Summation commutes: permuting worker order changes nothing.
        net = make_cluster(2, "tencent", gpus_per_node=2)
        grads = [rng.normal(size=40) for _ in range(4)]
        a = build_scheme(name, net).aggregate(grads).outputs[0]
        permuted = [grads[i] for i in (2, 0, 3, 1)]
        b = build_scheme(name, net).aggregate(permuted).outputs[0]
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("name", ALL_SCHEME_NAMES)
    def test_inputs_never_mutated(self, name, rng):
        net = make_cluster(2, "tencent", gpus_per_node=2)
        scheme = build_scheme(name, net, density=0.25)
        grads = [rng.normal(size=32) for _ in range(4)]
        originals = [g.copy() for g in grads]
        scheme.aggregate(grads, rng=rng)
        for g, o in zip(grads, originals):
            np.testing.assert_array_equal(g, o)

    @pytest.mark.parametrize("name", ALL_SCHEME_NAMES)
    def test_time_model_monotone_in_size(self, name, testbed):
        scheme = build_scheme(name, testbed, density=0.01)
        assert (
            scheme.time_model(50_000_000).total > scheme.time_model(5_000_000).total
        )
