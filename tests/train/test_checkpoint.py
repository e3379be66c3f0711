"""Checkpoint/restore: resumed sparsified runs must be bit-identical."""

import numpy as np
import pytest

from repro.api import build_scheme
from repro.cluster.cloud_presets import make_cluster
from repro.models.nn.mlp import MLPClassifier
from repro.optim.sgd import SGD
from repro.train.checkpoint import load_checkpoint, save_checkpoint
from repro.train.synthetic import make_spiral_classification
from repro.train.trainer import DistributedTrainer


def make_trainer(seed=0, scheme_name="mstopk", hidden=(12,)):
    net = make_cluster(2, "tencent", gpus_per_node=2)
    model = MLPClassifier(input_dim=2, hidden=hidden, num_classes=4)
    return DistributedTrainer(
        model,
        build_scheme(scheme_name, net, density=0.1),
        optimizer=SGD(lr=0.1, momentum=0.9),
        seed=seed,
    )


def batches_for(x, y, step, world=4, b=8):
    lo = (step * b) % (len(x) - world * b)
    return [(x[lo + w * b : lo + (w + 1) * b], y[lo + w * b : lo + (w + 1) * b])
            for w in range(world)]


class TestRoundTrip:
    def test_params_restored(self, tmp_path, rng):
        x, y = make_spiral_classification(512, num_classes=4, rng=rng)
        trainer = make_trainer()
        for step in range(3):
            trainer.train_step(batches_for(x, y, step))
        path = save_checkpoint(trainer, tmp_path / "ckpt")

        fresh = make_trainer()
        meta = load_checkpoint(fresh, path)
        assert meta["world_size"] == 4
        for name in trainer.params:
            np.testing.assert_array_equal(fresh.params[name], trainer.params[name])

    def test_resumed_run_is_bit_identical(self, tmp_path, rng):
        """Train 6 steps straight vs 3 + checkpoint + restore + 3.

        The checkpoint round-trips the trainer's RNG state, so the
        resumed run replays the exact MSTopK sampling stream — no
        manual RNG handoff needed.
        """
        x, y = make_spiral_classification(512, num_classes=4, rng=rng)

        straight = make_trainer(seed=5)
        for step in range(6):
            straight.train_step(batches_for(x, y, step))

        first = make_trainer(seed=5)
        for step in range(3):
            first.train_step(batches_for(x, y, step))
        path = save_checkpoint(first, tmp_path / "mid")

        resumed = make_trainer(seed=5)
        load_checkpoint(resumed, path)
        for step in range(3, 6):
            resumed.train_step(batches_for(x, y, step))

        for name in straight.params:
            np.testing.assert_allclose(
                resumed.params[name], straight.params[name], rtol=1e-12, atol=1e-14
            )

    def test_rng_state_round_trips(self, tmp_path, rng):
        x, y = make_spiral_classification(512, num_classes=4, rng=rng)
        trainer = make_trainer(seed=9)
        trainer.train_step(batches_for(x, y, 0))
        path = save_checkpoint(trainer, tmp_path / "rng")

        fresh = make_trainer(seed=1234)  # different seed -> different stream
        load_checkpoint(fresh, path)
        assert fresh._rng.bit_generator.state == trainer._rng.bit_generator.state
        np.testing.assert_array_equal(fresh._rng.random(8), trainer._rng.random(8))

    def test_restored_trainer_reproduces_loss_trajectory(self, tmp_path, rng):
        """Regression: a restored trainer's losses match the original's."""
        x, y = make_spiral_classification(512, num_classes=4, rng=rng)
        trainer = make_trainer(seed=2)
        for step in range(4):
            trainer.train_step(batches_for(x, y, step))
        path = save_checkpoint(trainer, tmp_path / "traj")

        reference = [
            trainer.train_step(batches_for(x, y, step))[0] for step in range(4, 10)
        ]
        restored = make_trainer(seed=2)
        load_checkpoint(restored, path)
        replayed = [
            restored.train_step(batches_for(x, y, step))[0] for step in range(4, 10)
        ]
        np.testing.assert_allclose(replayed, reference, rtol=1e-12, atol=1e-14)

    def test_error_feedback_residuals_restored(self, tmp_path, rng):
        x, y = make_spiral_classification(512, num_classes=4, rng=rng)
        trainer = make_trainer()
        for step in range(2):
            trainer.train_step(batches_for(x, y, step))
        assert trainer.scheme.ef is not None and len(trainer.scheme.ef) > 0
        path = save_checkpoint(trainer, tmp_path / "ef")

        fresh = make_trainer()
        load_checkpoint(fresh, path)
        for key in trainer.scheme.ef.keys():
            np.testing.assert_array_equal(
                fresh.scheme.ef.residual(key), trainer.scheme.ef.residual(key)
            )

    def test_the_checkpoint_holds_a_copy_of_the_live_buffers(self, tmp_path, rng):
        """EF residuals and momentum are rewritten in place every step;
        the checkpoint holds a copy, so a restore after more steps brings
        the saved values back."""
        x, y = make_spiral_classification(512, num_classes=4, rng=rng)
        trainer = make_trainer()
        for step in range(2):
            trainer.train_step(batches_for(x, y, step))
        path = save_checkpoint(trainer, tmp_path / "live")
        saved = [{k: v.copy() for k, v in state.items()} for state in _state(trainer)]
        live = _state(trainer)
        trainer.train_step(batches_for(x, y, 2))
        for before, after in zip(live, _state(trainer)):
            for key in before:
                assert after[key] is before[key], key  # the same buffers, rewritten
        load_checkpoint(trainer, path)
        for want, got in zip(saved, _state(trainer)):
            assert list(got) == list(want) and want
            for key in want:
                np.testing.assert_array_equal(got[key], want[key])

    def test_float32_state_round_trips_in_float32(self, tmp_path, rng):
        """Params, momentum and HiTopKComm's shard residuals come back
        float32 and bit-equal, and the restored trainer steps in float32."""
        x, y = make_spiral_classification(512, num_classes=4, rng=rng)
        trainer = make_trainer()
        for step in range(2):
            trainer.train_step(batches_for(x, y, step))
        path = save_checkpoint(trainer, tmp_path / "f32")
        fresh = make_trainer(seed=7)
        load_checkpoint(fresh, path)
        for want, got in zip(_state(trainer), _state(fresh)):
            assert list(got) == list(want) and want
            for key in want:
                assert got[key].dtype == want[key].dtype == np.float32, key
                np.testing.assert_array_equal(got[key], want[key])
        assert fresh.train_step(batches_for(x, y, 2)) == trainer.train_step(batches_for(x, y, 2))
        assert fresh._grads.dtype == np.float32

    def test_momentum_restored(self, tmp_path, rng):
        x, y = make_spiral_classification(512, num_classes=4, rng=rng)
        trainer = make_trainer()
        trainer.train_step(batches_for(x, y, 0))
        path = save_checkpoint(trainer, tmp_path / "mom")
        fresh = make_trainer()
        load_checkpoint(fresh, path)
        velocity = trainer.optimizer._velocity
        assert velocity and fresh.optimizer._velocity.keys() == velocity.keys()
        for name, v in velocity.items():
            assert fresh.optimizer._velocity[name].tobytes() == v.tobytes()

    def test_rollback_clears_post_checkpoint_momentum(self, tmp_path, rng):
        """Restoring a step-0 checkpoint must discard accumulated momentum."""
        x, y = make_spiral_classification(512, num_classes=4, rng=rng)
        trainer = make_trainer(seed=3)
        path = save_checkpoint(trainer, tmp_path / "step0")  # velocity empty
        for step in range(3):
            trainer.train_step(batches_for(x, y, step))
        assert trainer.optimizer._velocity
        load_checkpoint(trainer, path)
        assert not trainer.optimizer._velocity
        # EF residuals accumulated after the checkpoint are gone too.
        assert len(trainer.scheme.ef) == 0


class TestValidation:
    def test_world_size_mismatch_rejected(self, tmp_path, rng):
        x, y = make_spiral_classification(512, num_classes=4, rng=rng)
        trainer = make_trainer()
        trainer.train_step(batches_for(x, y, 0))
        path = save_checkpoint(trainer, tmp_path / "w")

        net = make_cluster(2, "tencent", gpus_per_node=4)  # 8 workers
        other = DistributedTrainer(
            MLPClassifier(input_dim=2, hidden=(12,), num_classes=4),
            build_scheme("mstopk", net, density=0.1),
            seed=0,
        )
        with pytest.raises(ValueError, match="world size"):
            load_checkpoint(other, path)

    def test_lenient_world_mismatch_returns_orphan_residuals(self, tmp_path, rng):
        x, y = make_spiral_classification(512, num_classes=4, rng=rng)
        trainer = make_trainer()
        for step in range(2):
            trainer.train_step(batches_for(x, y, step))
        assert len(trainer.scheme.ef) > 0
        path = save_checkpoint(trainer, tmp_path / "elastic")

        net = make_cluster(2, "tencent", gpus_per_node=4)  # 8 workers
        other = DistributedTrainer(
            MLPClassifier(input_dim=2, hidden=(12,), num_classes=4),
            build_scheme("mstopk", net, density=0.1),
            seed=0,
        )
        meta = load_checkpoint(other, path, strict_world=False)
        # World-size-independent state restored...
        for name in trainer.params:
            np.testing.assert_array_equal(other.params[name], trainer.params[name])
        assert other._rng.bit_generator.state == trainer._rng.bit_generator.state
        # ...while rank-keyed residuals come back raw for the caller to fold.
        assert len(other.scheme.ef) == 0
        assert set(meta["residuals"]) == set(trainer.scheme.ef.keys())

    def test_unknown_parameter_rejected(self, tmp_path, rng):
        x, y = make_spiral_classification(512, num_classes=4, rng=rng)
        trainer = make_trainer()
        trainer.train_step(batches_for(x, y, 0))
        path = save_checkpoint(trainer, tmp_path / "p")

        net = make_cluster(2, "tencent", gpus_per_node=2)
        other = DistributedTrainer(
            MLPClassifier(input_dim=2, hidden=(9,), num_classes=4),  # other arch
            build_scheme("mstopk", net, density=0.1),
            seed=0,
        )
        with pytest.raises((KeyError, ValueError)):
            load_checkpoint(other, path)


def _state(trainer):
    """Params, momentum and residuals: everything a load may replace."""
    ef = trainer.scheme.ef
    return (
        dict(trainer.params),
        dict(trainer.optimizer._velocity),
        {key: ef.residual(key) for key in ef.keys()},
    )


class TestMisfitLeavesTheTrainerUntouched:
    """A valid checkpoint that does not fit is rejected before any of the
    trainer's state changes."""

    def _assert_rejected_untouched(self, trainer, path, match):
        before = [{k: v.copy() for k, v in part.items()} for part in _state(trainer)]
        rng_before = trainer._rng.bit_generator.state
        with pytest.raises(ValueError, match=match) as err:
            load_checkpoint(trainer, path)
        assert "\n" not in str(err.value)
        for want, got in zip(before, _state(trainer)):
            assert list(got) == list(want)
            for key in want:
                np.testing.assert_array_equal(got[key], want[key])
        assert trainer._rng.bit_generator.state == rng_before

    def _trained(self, rng, **kwargs):
        x, y = make_spiral_classification(512, num_classes=4, rng=rng)
        trainer = make_trainer(**kwargs)
        for step in range(2):
            trainer.train_step(batches_for(x, y, step))
        assert all(_state(trainer))  # params, momentum and residuals to lose
        return trainer

    def test_a_later_parameter_of_another_shape(self, tmp_path, rng):
        # fc0 fits, fc1.weight is (8, 8) against (8, 5): fc0 used to be
        # replaced and the momentum cleared before fc1 was looked at.
        path = save_checkpoint(self._trained(rng, hidden=(8, 8)), tmp_path / "shape")
        target = self._trained(rng, seed=1, hidden=(8, 5))
        self._assert_rejected_untouched(
            target, path, r"parameter 'fc1.weight' has shape \(8, 8\), model expects \(8, 5\)"
        )

    def test_a_float64_checkpoint_into_a_float32_trainer(self, tmp_path, rng, monkeypatch):
        monkeypatch.setattr(MLPClassifier, "dtype", np.float64)
        path = save_checkpoint(self._trained(rng), tmp_path / "f64")
        monkeypatch.undo()
        target = self._trained(rng, seed=1)
        self._assert_rejected_untouched(
            target, path, "parameter 'fc0.weight' is float64, model expects float32"
        )


class TestTornWrites:
    """A kill mid-``save_checkpoint`` must never restore silently."""

    def _checkpoint(self, tmp_path, rng):
        x, y = make_spiral_classification(512, num_classes=4, rng=rng)
        trainer = make_trainer()
        for step in range(2):
            trainer.train_step(batches_for(x, y, step))
        return trainer, save_checkpoint(trainer, tmp_path / "torn")

    def test_truncated_checkpoint_raises_typed_corruption(self, tmp_path, rng):
        from repro.train.checkpoint import CheckpointCorruptError

        _, path = self._checkpoint(tmp_path, rng)
        data = path.read_bytes()
        # A torn write: the front half of the archive, not a byte flip.
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(make_trainer(), path)

    def test_failed_load_leaves_the_trainer_untouched(self, tmp_path, rng):
        from repro.train.checkpoint import CheckpointCorruptError

        _, path = self._checkpoint(tmp_path, rng)
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 3])
        fresh = make_trainer(seed=3)
        before = {name: value.copy() for name, value in fresh.params.items()}
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(fresh, path)
        # The fallback contract: caller can roll back to the previous
        # slot because the failed restore mutated nothing.
        for name, value in before.items():
            np.testing.assert_array_equal(fresh.params[name], value)
