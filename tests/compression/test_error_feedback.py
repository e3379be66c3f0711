"""Error feedback — the residual algebra sparsified SGD depends on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.sparse import SparseVector
from repro.compression.error_feedback import ErrorFeedback
from repro.compression.exact_topk import topk_argpartition
from repro.compression.mstopk import mstopk_select
from repro.utils.seeding import new_rng


class TestResidualAlgebra:
    def test_first_apply_is_identity(self, rng):
        ef = ErrorFeedback()
        g = rng.normal(size=10)
        np.testing.assert_array_equal(ef.apply("w", g), g)

    def test_corrected_equals_sent_plus_residual(self, rng):
        # The EF invariant: corrected = densify(sent) + residual.
        ef = ErrorFeedback()
        g = rng.normal(size=100)
        corrected = ef.apply(0, g)
        sent = topk_argpartition(corrected, 10)
        ef.update(0, corrected, sent)
        np.testing.assert_allclose(
            sent.to_dense() + ef.residual(0), corrected, atol=1e-12
        )

    @given(d=st.integers(4, 200), seed=st.integers(0, 30))
    @settings(max_examples=40, deadline=None)
    def test_mass_conservation_over_iterations(self, d, seed):
        # Over T iterations: sum(gradients) = sum(sent) + final residual.
        rng = np.random.default_rng(seed)
        ef = ErrorFeedback()
        k = max(1, d // 10)
        total_grad = np.zeros(d)
        total_sent = np.zeros(d)
        for _ in range(8):
            g = rng.normal(size=d)
            total_grad += g
            corrected = ef.apply("w", g)
            sent = topk_argpartition(corrected, k)
            ef.update("w", corrected, sent)
            total_sent += sent.to_dense()
        np.testing.assert_allclose(
            total_sent + ef.residual("w"), total_grad, atol=1e-9
        )

    def test_residual_bounded_for_topk(self):
        # With top-k + EF the residual norm stays bounded (contraction
        # property of top-k, Stich et al. 2018).
        rng = new_rng(0)
        ef = ErrorFeedback()
        d, k = 256, 64  # keep 25% -> strong contraction
        norms = []
        for _ in range(200):
            g = rng.normal(size=d)
            corrected = ef.apply("w", g)
            sent = topk_argpartition(corrected, k)
            ef.update("w", corrected, sent)
            norms.append(float(np.linalg.norm(ef.residual("w"))))
        # Bounded: the last 100 norms don't trend upward vs the middle.
        assert np.mean(norms[-50:]) < 3.0 * np.mean(norms[50:100]) + 1.0

    def test_works_with_mstopk(self, rng):
        ef = ErrorFeedback()
        g = rng.normal(size=500)
        corrected = ef.apply("w", g)
        sent = mstopk_select(corrected, 25, rng=rng)
        ef.update("w", corrected, sent)
        np.testing.assert_allclose(
            sent.to_dense() + ef.residual("w"), corrected, atol=1e-12
        )


class TestBookkeeping:
    def test_independent_keys(self, rng):
        ef = ErrorFeedback()
        for key in ("a", "b"):
            g = rng.normal(size=10)
            corrected = ef.apply(key, g)
            ef.update(key, corrected, topk_argpartition(corrected, 2))
        assert len(ef) == 2
        assert set(ef.keys()) == {"a", "b"}

    def test_shape_mismatch_rejected(self, rng):
        ef = ErrorFeedback()
        g = rng.normal(size=10)
        ef.update("w", g, topk_argpartition(g, 2))
        with pytest.raises(ValueError):
            ef.apply("w", rng.normal(size=11))

    @pytest.mark.parametrize(
        "grad_dtype,residual_dtype",
        [(np.float32, np.float64), (np.float64, np.float32)],
    )
    @pytest.mark.parametrize("path", ["apply", "apply_batch"])
    def test_dtype_mismatch_rejected(self, rng, grad_dtype, residual_dtype, path):
        # Both paths used to cast silently: apply upcast the corrected
        # gradient, apply_batch cast the residual into the matrix's dtype.
        ef = ErrorFeedback()
        g = rng.normal(size=10).astype(residual_dtype)
        ef.update("w", g, topk_argpartition(g, 2))
        run = ef.apply if path == "apply" else lambda key, x: ef.apply_batch([key], x[None])[0]
        with pytest.raises(ValueError, match="residual dtype .* does not match gradient dtype") as err:
            run("w", rng.normal(size=10).astype(grad_dtype))
        message = str(err.value)
        assert "\n" not in message and np.dtype(residual_dtype).name in message
        assert run("w", g).dtype == residual_dtype

    def test_replace_swaps_every_buffer_for_a_copy(self, rng):
        ef = ErrorFeedback()
        g = rng.normal(size=10)
        ef.update("old", g, topk_argpartition(g, 2))
        fresh = {0: rng.normal(size=4), 1: rng.normal(size=4)}
        ef.replace(fresh)
        assert list(ef.keys()) == [0, 1]
        np.testing.assert_array_equal(ef.residual(1), fresh[1])
        fresh[1][:] = 0.0  # the caller's array is not the buffer
        assert ef.residual(1).any()
        ef.replace({})
        assert len(ef) == 0

    def test_duplicate_sent_indices_subtract_their_sum(self, rng):
        # A coalescable selection: the residual is corrected - densify(sent).
        ef = ErrorFeedback()
        g = rng.normal(size=8)
        sent = SparseVector(np.array([0.5, 0.25, 2.0]), np.array([3, 3, 6]), 8)
        ef.update("w", g, sent)
        np.testing.assert_allclose(ef.residual("w"), g - sent.to_dense(), atol=1e-15)

    def test_sent_length_mismatch_rejected(self, rng):
        ef = ErrorFeedback()
        g = rng.normal(size=10)
        with pytest.raises(ValueError):
            ef.update("w", g, topk_argpartition(rng.normal(size=12), 2))


class TestBufferReuse:
    """``apply(out=)`` and ``update`` write into existing buffers; the
    bits are those of the allocating path."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_apply_and_update_match_the_fresh_path(self, rng, dtype):
        fresh, reused = ErrorFeedback(), ErrorFeedback()
        for step in range(4):
            g = rng.normal(size=50).astype(dtype)
            corrected = fresh.apply("w", g)
            shard = g.copy()
            assert reused.apply("w", shard, out=shard) is shard
            assert shard.tobytes() == corrected.tobytes()
            sent = mstopk_select(corrected, 5, rng=new_rng(step))
            buffer = reused.residual("w")
            fresh.update("w", corrected, sent)
            reused.update("w", shard, sent)
            assert reused.residual("w").tobytes() == fresh.residual("w").tobytes()
            if buffer is not None:
                assert reused.residual("w") is buffer

    def test_residual_is_the_live_buffer(self, rng):
        ef = ErrorFeedback()
        g = rng.normal(size=10)
        ef.update("w", g, topk_argpartition(g, 2))
        held = ef.residual("w")
        before = held.copy()
        h = rng.normal(size=10)
        ef.update("w", h, topk_argpartition(h, 2))
        assert ef.residual("w") is held
        assert not np.array_equal(held, before)

    def test_update_from_the_residual_itself_is_not_written_through(self, rng):
        ef = ErrorFeedback()
        g = rng.normal(size=10)
        ef.update("w", g, topk_argpartition(g, 2))
        live = ef.residual("w")
        want = live.copy()
        sent = topk_argpartition(want, 3)
        want[sent.indices] = 0.0
        ef.update("w", live, sent)
        np.testing.assert_array_equal(ef.residual("w"), want)

    def test_update_to_a_new_shape_allocates(self, rng):
        ef = ErrorFeedback()
        g = rng.normal(size=10)
        ef.update("w", g, topk_argpartition(g, 2))
        old = ef.residual("w")
        h = rng.normal(size=12).astype(np.float32)
        ef.update("w", h, topk_argpartition(h, 2))
        assert ef.residual("w") is not old
        assert ef.residual("w").shape == (12,) and ef.residual("w").dtype == np.float32

    def test_apply_out_must_fit(self, rng):
        ef = ErrorFeedback()
        g = rng.normal(size=10)
        with pytest.raises(ValueError, match="out is"):
            ef.apply("w", g, out=np.empty(10, dtype=np.float32))


class TestUpdateRefusesMismatchedInputs:
    """``update`` / ``update_batch`` refuse what they would write wrongly,
    and leave the stored residual as it was."""

    def test_update_rejects_a_2d_gradient(self, rng):
        # Accepted before: ``residual[indices] = 0`` zeroed rows, and the
        # residual read -1 across a row instead of at flat index 0.
        ef = ErrorFeedback()
        g = rng.normal(size=6).astype(np.float32)
        ef.update("b", g, topk_argpartition(g, 2))
        kept = ef.residual("b").copy()
        sent = SparseVector(np.array([1.0], dtype=np.float32), np.array([0]), 6)
        with pytest.raises(ValueError, match="1-D gradient") as err:
            ef.update("b", np.zeros((2, 3), dtype=np.float32), sent)
        assert "\n" not in str(err.value)
        np.testing.assert_array_equal(ef.residual("b"), kept)

    @pytest.mark.parametrize("path", ["update", "update_batch"])
    def test_sent_values_must_have_the_gradient_dtype(self, rng, path):
        ef = ErrorFeedback()
        g = rng.normal(size=6).astype(np.float32)
        ef.update("b", g, topk_argpartition(g, 2))
        kept = ef.residual("b").copy()
        sent = SparseVector(np.array([1.0]), np.array([0]), 6)  # float64
        run = ef.update if path == "update" else (
            lambda key, x, s: ef.update_batch([key], x[None], [s])
        )
        with pytest.raises(ValueError, match="sent values dtype float64 .* float32") as err:
            run("b", g, sent)
        assert "\n" not in str(err.value)
        np.testing.assert_array_equal(ef.residual("b"), kept)

    def test_update_batch_rejects_a_sent_length_mismatch_before_writing(self, rng):
        ef = ErrorFeedback()
        mat = rng.normal(size=(2, 6))
        sents = [topk_argpartition(mat[0], 2), topk_argpartition(rng.normal(size=7), 2)]
        with pytest.raises(ValueError, match="sent length 7"):
            ef.update_batch(["a", "b"], mat, sents)
        assert len(ef) == 0
