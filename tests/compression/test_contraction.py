"""The contraction property error feedback needs, checked on every
registered compressor.

Top-k SGD with error feedback converges at the dense rate when the
compressor ``C`` is a contraction (Stich et al. 2018; Karimireddy et al.
2019):

    ||x - C(x)||²  <=  γ ||x||²,   γ < 1,

with ``γ = 1 - k/d`` for exact top-k.  The factor is measured here as
``||x - densify(C(x))||² / ||x||²``; MSTopK is approximate, so the paper
relies on it staying a contraction rather than on the exact bound.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import COMPRESSORS, build_compressor
from repro.compression.error_feedback import ErrorFeedback
from repro.compression.exact_topk import topk_argpartition
from repro.compression.randomk import RandomK
from repro.utils.seeding import new_rng

ALL = COMPRESSORS.available()
MAGNITUDE = ["exact-topk", "mstopk", "dgc"]


def contraction_factor(x: np.ndarray, sent) -> float:
    assert sent.length == x.size
    norm_sq = float(x @ x)
    if norm_sq == 0.0:
        return 0.0
    residual = x - sent.to_dense()
    return float(residual @ residual) / norm_sq


def test_the_registry_holds_every_selector_under_test():
    assert set(ALL) == {"exact-topk", "mstopk", "dgc", "randomk"}


@given(d=st.integers(10, 500), seed=st.integers(0, 40))
@settings(max_examples=50, deadline=None)
def test_exact_topk_meets_the_theoretical_bound(d, seed):
    x = np.random.default_rng(seed).normal(size=d)
    k = max(1, d // 10)
    assert contraction_factor(x, topk_argpartition(x, k)) <= 1.0 - k / d + 1e-12


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_every_selector_sends_exactly_k_of_the_shards_own_values_in_its_dtype(name, dtype):
    """What the float32 trainer's aggregation relies on: a shard's dtype
    is the dtype on the wire, one shard at a time or batched."""
    compressor, rng = build_compressor(name), new_rng(5)
    shards = rng.normal(size=(3, 400)).astype(dtype)
    ks = [1, 40, 400]
    batched = compressor.select_batch(shards, ks, rng=rng)
    for shard, k, one_of_batch in zip(shards, ks, batched):
        for sent in (one_of_batch, compressor.select(shard, k, rng=rng)):
            assert sent.values.dtype == dtype and sent.nnz == k
            np.testing.assert_array_equal(sent.values, shard[sent.indices])


@pytest.mark.parametrize("name", ALL)
def test_no_selector_keeps_more_energy_than_exact_topk(name):
    # Every selector sends k of x's own values, so exact top-k — the k
    # largest squares — leaves the least residual of any of them.
    compressor, rng = build_compressor(name), new_rng(3)
    for _ in range(10):
        x = rng.normal(size=1000)
        best = contraction_factor(x, topk_argpartition(x, 50))
        assert contraction_factor(x, compressor.select(x, 50, rng=rng)) >= best - 1e-12


@pytest.mark.parametrize("name", MAGNITUDE)
@pytest.mark.parametrize("tail", ["gaussian", "heavy"])
def test_magnitude_selectors_meet_the_exact_topk_bound(name, tail):
    compressor, rng = build_compressor(name), new_rng(5)
    d, k = 4000, 40
    for _ in range(10):
        x = rng.normal(size=d) if tail == "gaussian" else rng.standard_t(2, size=d)
        assert contraction_factor(x, compressor.select(x, k, rng=rng)) <= 1.0 - k / d


@pytest.mark.parametrize("name", ALL)
def test_full_selection_is_lossless(name):
    x = new_rng(7).normal(size=100)
    sent = build_compressor(name).select(x, 100, rng=new_rng(8))
    assert contraction_factor(x, sent) == pytest.approx(0.0, abs=1e-24)


@pytest.mark.parametrize("name", ALL)
def test_a_zero_gradient_sends_k_zeros(name):
    sent = build_compressor(name).select(np.zeros(100), 10, rng=new_rng(9))
    assert sent.nnz == 10
    assert not sent.to_dense().any()


def test_unscaled_randomk_contracts_by_k_over_d_in_expectation():
    rng = new_rng(0)
    x = rng.normal(size=500)
    factors = [contraction_factor(x, RandomK().select(x, 50, rng=rng)) for _ in range(200)]
    assert np.mean(factors) == pytest.approx(1.0 - 50 / 500, abs=0.02)


def test_scaled_randomk_is_unbiased_but_not_a_contraction():
    # E||x - (d/k) x_S||² = (d/k - 1)||x||²: the unbiased form expands
    # the residual, which is why error feedback runs unscaled selectors.
    rng = new_rng(0)
    x = rng.normal(size=500)
    factors = [
        contraction_factor(x, RandomK(scale=True).select(x, 50, rng=rng)) for _ in range(200)
    ]
    assert np.mean(factors) == pytest.approx(500 / 50 - 1.0, rel=0.1)


@pytest.mark.parametrize("name", MAGNITUDE)
def test_error_feedback_residual_stays_within_the_contraction_bound(name):
    # With factor γ_t <= γ at every step and ||g_t|| <= G, the residual
    # obeys ||e_t|| <= sqrt(γ) / (1 - sqrt(γ)) * G for all t.
    compressor, rng, ef = build_compressor(name), new_rng(1), ErrorFeedback()
    d, k = 400, 100
    worst, grad_bound, residual_norms = 0.0, 0.0, []
    for _ in range(100):
        g = rng.normal(size=d)
        grad_bound = max(grad_bound, float(np.linalg.norm(g)))
        corrected = ef.apply("w", g)
        sent = compressor.select(corrected, k, rng=rng)
        worst = max(worst, contraction_factor(corrected, sent))
        ef.update("w", corrected, sent)
        residual_norms.append(float(np.linalg.norm(ef.residual("w"))))
    assert worst < 1.0
    root = np.sqrt(worst)
    assert max(residual_norms) <= root / (1.0 - root) * grad_bound
