"""Bit-exactness parity: the vectorized hot path vs the legacy loops.

The hot-path engine rewrote every scheme's aggregation, the trainer's
fusion, and the compression batch paths.  These tests pin all of it to
the pre-vectorisation reference (`tests/comm/legacy_schemes.py`
and :class:`ReferenceTrainer`, the step built on it) — aggregates, wire
accounting, error-feedback residuals, rng streams, losses, and
parameters must match bit for bit, for every registered scheme, under
sync training and under elastic world-size changes.
"""

import numpy as np
import pytest

from repro.api.registry import build_cluster, build_scheme, build_workload
from repro.elastic import elastic_trainer
from repro.elastic.elastic_trainer import ElasticTrainer
from repro.elastic.events import ChurnEvent, PoissonChurn, TraceSchedule
from repro.train.trainer import DistributedTrainer
from repro.utils.seeding import new_rng
from tests.comm.legacy_schemes import legacy_aggregate
from tests.models import row_oracles
from tests.utils.flatten_oracle import flatten_tensors, unflatten_tensors

#: The four registered scheme families of the convergence experiments.
SCHEMES = ("dense", "topk", "gtopk", "mstopk")
#: Every registered scheme builder (dense variants included).
ALL_SCHEMES = ("dense", "dense-ring", "2dtar", "topk", "gtopk", "mstopk", "naiveag-mstopk")


@pytest.fixture()
def network():
    return build_cluster("tencent", 4, gpus_per_node=2)


def assert_aggregate_parity(name, network, d, steps=4, dtype=np.float64):
    """Aggregate, accounting, EF state, and rng stream all match, and all
    of it stays in the gradients' ``dtype``."""
    world = network.topology.world_size
    vec = build_scheme(name, network, density=0.05)
    ref = build_scheme(name, network, density=0.05)
    rng_data = np.random.default_rng(17)
    rng_vec, rng_ref = new_rng(5), new_rng(5)
    for step in range(steps):
        grads = rng_data.standard_normal((world, d)).astype(dtype)
        a = vec.aggregate(grads, rng=rng_vec)
        b = legacy_aggregate(ref, grads, rng=rng_ref)
        assert a.aggregate.dtype == b.aggregate.dtype == dtype
        assert a.aggregate.tobytes() == b.aggregate.tobytes(), (name, step)
        assert a.inter_bytes == b.inter_bytes, (name, step)
        assert a.intra_bytes == b.intra_bytes, (name, step)
        for key in ("k", "k_tilde", "global_nnz"):
            assert a.extras.get(key) == b.extras.get(key), (name, step)
        ef_vec = getattr(vec, "ef", None)
        ef_ref = getattr(ref, "ef", None)
        if ef_vec is not None:
            assert list(ef_vec.keys()) == list(ef_ref.keys())
            for ef_key in ef_vec.keys():
                assert ef_vec.residual(ef_key).dtype == ef_ref.residual(ef_key).dtype == dtype
                np.testing.assert_array_equal(
                    ef_vec.residual(ef_key), ef_ref.residual(ef_key)
                )
    # Identical rng consumption: the next draw must agree.
    assert rng_vec.integers(0, 1 << 30) == rng_ref.integers(0, 1 << 30)


class ReferenceTrainer(DistributedTrainer):
    """The pre-vectorisation step, kept live as the oracle: each worker
    through the per-row body (``tests/models/row_oracles.py``) →
    ``flatten_tensors`` → the per-rank loops of ``legacy_aggregate`` →
    ``optimizer.step``.  An ``ElasticTrainer``
    gets it by patching ``elastic_trainer.DistributedTrainer``, the one
    name ``_fresh_trainer`` constructs every (re)built trainer through."""

    def train_step(self, batches):
        names = list(self.params)
        flats, losses, sums = [], [], {}
        for bx, by in batches:
            loss, grads, metrics = row_oracles.loss_and_grad(self.model, self.params, bx, by)
            flat, shapes = flatten_tensors([grads[name] for name in names])
            flats.append(flat)
            losses.append(loss)
            for key, value in metrics.items():
                sums[key] = sums.get(key, 0.0) + value
        result = legacy_aggregate(self.scheme, flats, rng=self._rng)
        mean = unflatten_tensors(result.aggregate / self.world_size, shapes)
        self.optimizer.step(self.params, dict(zip(names, mean)))
        means = {key: value / self.world_size for key, value in sums.items()}
        return float(np.mean(losses)), means | {"comm_seconds": result.time}


class TestSchemeParity:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_aggregate_bit_identical_over_steps(self, network, name, dtype):
        assert_aggregate_parity(name, network, d=863, dtype=dtype)

    @pytest.mark.parametrize("name", ["mstopk", "dense", "2dtar"])
    def test_eight_gpu_nodes_with_uneven_chunks(self, name):
        """``tencent 4x2`` only reaches the two-row shortcut of the
        intra-node fold; 2x8 with ``d % 8 != 0`` runs the chunked ring
        (and the 16-rank flat ring) with unequal shard lengths."""
        network = build_cluster("tencent", 2, gpus_per_node=8)
        assert_aggregate_parity(name, network, d=1003)


class TestTrainerParity:
    # transformer: leaf gradients from non-GEMM ops (embedding scatter,
    # layer-norm sums, per-sequence products summed over the batch) land
    # in their destinations at the tape's first accumulation.
    @pytest.mark.parametrize("workload_name", ["mlp", "cnn", "transformer"])
    @pytest.mark.parametrize("scheme_name", SCHEMES)
    def test_sync_training_bit_identical(self, network, workload_name, scheme_name):
        workload = build_workload(workload_name, num_samples=256, rng=new_rng(7))
        vec = DistributedTrainer(
            workload.model, build_scheme(scheme_name, network, density=0.05), seed=7
        )
        ref = ReferenceTrainer(
            workload.model, build_scheme(scheme_name, network, density=0.05), seed=7
        )
        report_vec = vec.train(workload.x, workload.y, epochs=2, local_batch=8)
        report_ref = ref.train(workload.x, workload.y, epochs=2, local_batch=8)
        assert report_vec.epoch_losses == report_ref.epoch_losses
        assert report_vec.epoch_metrics == report_ref.epoch_metrics
        assert report_vec.comm_seconds == report_ref.comm_seconds
        for key in vec.params:
            np.testing.assert_array_equal(vec.params[key], ref.params[key])

    @pytest.mark.parametrize("scheme_name", SCHEMES)
    def test_mlp_bit_identical_in_either_dtype(self, network, scheme_name, mlp_dtype):
        """The oracle step follows the parameters' dtype as the live one
        does: same losses, same parameters, same residuals, same dtype."""
        workload = build_workload("mlp", num_samples=128, rng=new_rng(7))
        trainers = [
            cls(workload.model, build_scheme(scheme_name, network, density=0.05), seed=7)
            for cls in (DistributedTrainer, ReferenceTrainer)
        ]
        vec, ref = trainers
        reports = [t.train(workload.x, workload.y, epochs=1, local_batch=8) for t in trainers]
        assert reports[0].epoch_losses == reports[1].epoch_losses
        for key in vec.params:
            assert vec.params[key].dtype == ref.params[key].dtype == mlp_dtype
            np.testing.assert_array_equal(vec.params[key], ref.params[key])
        ef_vec, ef_ref = getattr(vec.scheme, "ef", None), getattr(ref.scheme, "ef", None)
        for ef_key in ef_vec.keys() if ef_vec is not None else ():
            assert ef_vec.residual(ef_key).dtype == mlp_dtype
            np.testing.assert_array_equal(ef_vec.residual(ef_key), ef_ref.residual(ef_key))

    @pytest.mark.parametrize("workload_name", ["mlp-tiny", "cnn"])
    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_every_registered_scheme_one_epoch(self, network, workload_name, scheme_name):
        """The dense variants and naive all-gather too: the live step and
        the oracle step agree on losses and parameters for every scheme
        the registry builds."""
        workload = build_workload(workload_name, num_samples=128, rng=new_rng(3))
        vec, ref = (
            cls(workload.model, build_scheme(scheme_name, network, density=0.05), seed=5)
            for cls in (DistributedTrainer, ReferenceTrainer)
        )
        report_vec = vec.train(workload.x, workload.y, epochs=1, local_batch=8)
        report_ref = ref.train(workload.x, workload.y, epochs=1, local_batch=8)
        assert report_vec.epoch_losses == report_ref.epoch_losses
        assert report_vec.comm_seconds == report_ref.comm_seconds
        for key in vec.params:
            np.testing.assert_array_equal(vec.params[key], ref.params[key])

    @pytest.mark.parametrize("gpus_per_node", [1, 4], ids=["one-worker", "four-workers"])
    def test_fusion_buffer_takes_the_parameters_dtype(self, gpus_per_node, mlp_dtype):
        """The fusion buffer, the aggregate read from it and the update
        all stay in the parameters' dtype, through a one-worker call and
        a blocked one, bit-identical to the oracle."""
        network = build_cluster("tencent", 1, gpus_per_node=gpus_per_node)
        workload = build_workload("mlp", num_samples=128, rng=new_rng(7))
        vec, ref = (
            cls(workload.model, build_scheme("mstopk", network, density=0.05), seed=7)
            for cls in (DistributedTrainer, ReferenceTrainer)
        )
        assert vec._grads.dtype == mlp_dtype
        assert vec._grads.shape == (gpus_per_node, vec.grad_dim)
        report_vec = vec.train(workload.x, workload.y, epochs=1, local_batch=8)
        report_ref = ref.train(workload.x, workload.y, epochs=1, local_batch=8)
        assert report_vec.epoch_losses == report_ref.epoch_losses
        for key in vec.params:
            assert vec.params[key].dtype == mlp_dtype
            np.testing.assert_array_equal(vec.params[key], ref.params[key])

    def test_fusion_buffer_is_the_aggregation_input(self, network, monkeypatch):
        """Zero-copy: the scheme aggregates the very matrix the workers'
        gradients were computed in, every step."""
        workload = build_workload("mlp-tiny", num_samples=64, rng=new_rng(3))
        trainer = DistributedTrainer(
            workload.model, build_scheme("dense", network), seed=1
        )
        seen = []
        aggregate = trainer.scheme.aggregate

        def spy(grads, **kwargs):
            seen.append(grads)
            return aggregate(grads, **kwargs)

        monkeypatch.setattr(trainer.scheme, "aggregate", spy)
        batches = [(workload.x[:4], workload.y[:4])] * 8
        trainer.train_step(batches)
        trainer.train_step(batches)
        assert len(seen) == 2
        assert all(grads is trainer._grads for grads in seen)

    def test_layout_computed_once_and_reused(self, network):
        workload = build_workload("mlp-tiny", num_samples=64, rng=new_rng(3))
        trainer = DistributedTrainer(
            workload.model, build_scheme("dense", network), seed=1
        )
        assert trainer.grad_dim == sum(p.size for p in trainer.params.values())
        assert trainer._grads.shape == (8, trainer.grad_dim)
        buffer_before = trainer._grads
        batches = [(workload.x[:4], workload.y[:4])] * 8
        trainer.train_step(batches)
        trainer.train_step(batches)
        # The fusion buffer is preallocated once and reused every step.
        assert trainer._grads is buffer_before


class TestElasticParity:
    @pytest.mark.parametrize("scheme_name", SCHEMES)
    def test_elastic_bit_identical_under_churn(self, scheme_name, tmp_path, monkeypatch):
        workload = build_workload("mlp-tiny", num_samples=192, rng=new_rng(5))
        trace = TraceSchedule(
            [
                ChurnEvent(6, "revoke", warned=False),
                ChurnEvent(13, "join"),
                ChurnEvent(20, "revoke", warned=True),
            ]
        )

        def run(trainer_class, subdir):
            monkeypatch.setattr(elastic_trainer, "DistributedTrainer", trainer_class)
            trainer = ElasticTrainer(
                workload.model,
                scheme=scheme_name,
                density=0.05,
                num_nodes=3,
                gpus_per_node=2,
                min_nodes=1,
                seed=11,
                checkpoint_every=5,
                checkpoint_dir=tmp_path / subdir,
            )
            report = trainer.run(
                workload.x, workload.y, iterations=26, local_batch=8, schedule=trace
            )
            assert type(trainer.trainer) is trainer_class
            return report

        vec = run(DistributedTrainer, "vec")
        ref = run(ReferenceTrainer, "ref")
        assert vec.losses == ref.losses
        assert vec.world_sizes == ref.world_sizes
        assert vec.useful_iterations == ref.useful_iterations
        assert vec.rollbacks == ref.rollbacks
        assert vec.comm_seconds == ref.comm_seconds

    def test_elastic_poisson_churn_parity(self, tmp_path, monkeypatch):
        workload = build_workload("mlp-tiny", num_samples=192, rng=new_rng(5))
        schedule = PoissonChurn(0.02, warned_fraction=0.5, rejoin_delay=5)

        def run(trainer_class, subdir):
            monkeypatch.setattr(elastic_trainer, "DistributedTrainer", trainer_class)
            trainer = ElasticTrainer(
                workload.model,
                scheme="mstopk",
                density=0.05,
                num_nodes=4,
                gpus_per_node=2,
                min_nodes=1,
                seed=3,
                checkpoint_every=4,
                checkpoint_dir=tmp_path / subdir,
            )
            report = trainer.run(
                workload.x, workload.y, iterations=30, local_batch=8, schedule=schedule
            )
            assert type(trainer.trainer) is trainer_class
            return report

        vec = run(DistributedTrainer, "vec")
        ref = run(ReferenceTrainer, "ref")
        assert vec.losses == ref.losses
        assert vec.world_sizes == ref.world_sizes
        assert vec.revocations == ref.revocations
