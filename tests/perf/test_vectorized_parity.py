"""Bit-exactness parity: the vectorized hot path vs the legacy loops.

The hot-path engine rewrote every scheme's aggregation, the trainer's
fusion, and the compression batch paths.  These tests pin all of it to
the pre-vectorisation reference (`tests/comm/legacy_schemes.py`
and :class:`ReferenceTrainer`, the step built on it) — outputs, wire
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
from repro.exec.backend import ProcessBackend
from repro.train.trainer import DistributedTrainer
from repro.utils.seeding import new_rng
from tests.comm.legacy_schemes import legacy_aggregate
from tests.utils.flatten_oracle import flatten_tensors, unflatten_tensors

#: The four registered scheme families of the convergence experiments.
SCHEMES = ("dense", "topk", "gtopk", "mstopk")
#: Every registered scheme builder (dense variants included).
ALL_SCHEMES = ("dense", "dense-ring", "2dtar", "topk", "gtopk", "mstopk", "naiveag-mstopk")


@pytest.fixture()
def network():
    return build_cluster("tencent", 4, gpus_per_node=2)


@pytest.fixture(scope="module")
def pool():
    """One shared 2-process pool for the whole module (spawn cost once)."""
    backend = ProcessBackend(jobs=2)
    yield backend
    backend.close()


def assert_aggregate_parity(name, network, d, steps=4, dtype=np.float64):
    """Outputs, accounting, EF state, and rng stream all match, and all
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
        assert len(a.outputs) == len(b.outputs) == world
        for out_a, out_b in zip(a.outputs, b.outputs):
            assert out_a.dtype == out_b.dtype == dtype
            np.testing.assert_array_equal(out_a, out_b)
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
    """The pre-vectorisation step, kept live as the oracle: per-worker
    ``loss_and_grad`` → ``flatten_tensors`` → the per-rank loops of
    ``legacy_aggregate`` → ``optimizer.step``.  An ``ElasticTrainer``
    gets it by patching ``elastic_trainer.DistributedTrainer``, the one
    name ``_fresh_trainer`` constructs every (re)built trainer through."""

    def train_step(self, batches):
        names = list(self.params)
        flats, losses, sums = [], [], {}
        for bx, by in batches:
            loss, grads, metrics = self.model.loss_and_grad(self.params, bx, by)
            flat, shapes = flatten_tensors([grads[name] for name in names])
            flats.append(flat)
            losses.append(loss)
            for key, value in metrics.items():
                sums[key] = sums.get(key, 0.0) + value
        result = legacy_aggregate(self.scheme, flats, rng=self._rng)
        mean = unflatten_tensors(result.outputs[0] / self.world_size, shapes)
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

    @pytest.mark.parametrize("name", SCHEMES)
    def test_matrix_and_list_inputs_agree(self, network, name):
        """The (W, d) matrix interface equals the historical list one."""
        s_mat = build_scheme(name, network, density=0.05)
        s_list = build_scheme(name, network, density=0.05)
        grads = np.random.default_rng(23).standard_normal((8, 101))
        a = s_mat.aggregate(grads, rng=new_rng(1))
        b = s_list.aggregate(list(grads), rng=new_rng(1))
        np.testing.assert_array_equal(a.outputs[0], b.outputs[0])

    def test_aggregate_does_not_mutate_input_matrix(self, network):
        for name in SCHEMES:
            scheme = build_scheme(name, network, density=0.05)
            grads = np.random.default_rng(2).standard_normal((8, 64))
            original = grads.copy()
            scheme.aggregate(grads, rng=new_rng(0))
            np.testing.assert_array_equal(grads, original)

    def test_world_size_validation_on_matrix(self, network):
        scheme = build_scheme("dense", network)
        with pytest.raises(ValueError):
            scheme.aggregate(np.zeros((3, 10)))


class TestTrainerParity:
    # transformer: leaf gradients from non-GEMM ops (embedding scatter,
    # layer-norm sums, unbroadcast products) reach their rows by copy.
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

    def test_layout_computed_once_and_reused(self, network):
        workload = build_workload("mlp-tiny", num_samples=64, rng=new_rng(3))
        trainer = DistributedTrainer(
            workload.model, build_scheme("dense", network), seed=1
        )
        assert trainer.grad_dim == sum(p.size for p in trainer.params.values())
        assert trainer._grad_matrix.shape == (8, trainer.grad_dim)
        buffer_before = trainer._grad_matrix
        batches = [(workload.x[:4], workload.y[:4])] * 8
        trainer.train_step(batches)
        trainer.train_step(batches)
        # The fusion buffer is preallocated once and reused every step.
        assert trainer._grad_matrix is buffer_before


class TestProcessBackendParity:
    """The ``process`` execution backend vs the serial hot path.

    Same bar as the vectorized-vs-legacy pinning above: losses, metrics,
    comm accounting, parameters and EF residuals must match bit for bit
    for every registered scheme — parallelism may only move wall-clock.
    """

    @pytest.mark.parametrize("workload_name", ["mlp", "cnn"])
    @pytest.mark.parametrize("scheme_name", SCHEMES)
    def test_sync_training_bit_identical(self, network, pool, workload_name, scheme_name):
        workload = build_workload(workload_name, num_samples=256, rng=new_rng(7))
        serial = DistributedTrainer(
            workload.model, build_scheme(scheme_name, network, density=0.05), seed=7
        )
        parallel = DistributedTrainer(
            workload.model,
            build_scheme(scheme_name, network, density=0.05),
            seed=7,
            exec_backend=pool,
        )
        try:
            report_s = serial.train(workload.x, workload.y, epochs=2, local_batch=8)
            report_p = parallel.train(workload.x, workload.y, epochs=2, local_batch=8)
        finally:
            parallel.close()
        assert report_p.epoch_losses == report_s.epoch_losses
        assert report_p.epoch_metrics == report_s.epoch_metrics
        assert report_p.comm_seconds == report_s.comm_seconds
        for key in serial.params:
            np.testing.assert_array_equal(parallel.params[key], serial.params[key])
        ef_s = getattr(serial.scheme, "ef", None)
        ef_p = getattr(parallel.scheme, "ef", None)
        if ef_s is not None:
            for ef_key in ef_s.keys():
                np.testing.assert_array_equal(
                    ef_p.residual(ef_key), ef_s.residual(ef_key)
                )

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_shared_blocks_take_the_parameters_dtype(self, network, jobs, mlp_dtype):
        """Pool workers compute in the trainer's dtype: both shared blocks
        are allocated in it, and the run stays bit-identical to serial at
        any pool width."""
        workload = build_workload("mlp", num_samples=128, rng=new_rng(7))
        serial = DistributedTrainer(
            workload.model, build_scheme("mstopk", network, density=0.05), seed=7
        )
        with ProcessBackend(jobs=jobs) as backend:
            parallel = DistributedTrainer(
                workload.model,
                build_scheme("mstopk", network, density=0.05),
                seed=7,
                exec_backend=backend,
            )
            try:
                engine = parallel._engine
                assert engine._grad.array.dtype == engine._params.array.dtype == mlp_dtype
                report_p = parallel.train(workload.x, workload.y, epochs=1, local_batch=8)
            finally:
                parallel.close()
        report_s = serial.train(workload.x, workload.y, epochs=1, local_batch=8)
        assert report_p.epoch_losses == report_s.epoch_losses
        for key in serial.params:
            assert parallel.params[key].dtype == mlp_dtype
            np.testing.assert_array_equal(parallel.params[key], serial.params[key])

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_every_registered_scheme_one_epoch(self, network, pool, scheme_name):
        workload = build_workload("mlp-tiny", num_samples=128, rng=new_rng(3))
        serial = DistributedTrainer(
            workload.model, build_scheme(scheme_name, network, density=0.05), seed=5
        )
        parallel = DistributedTrainer(
            workload.model,
            build_scheme(scheme_name, network, density=0.05),
            seed=5,
            exec_backend=pool,
        )
        try:
            report_s = serial.train(workload.x, workload.y, epochs=1, local_batch=8)
            report_p = parallel.train(workload.x, workload.y, epochs=1, local_batch=8)
        finally:
            parallel.close()
        assert report_p.epoch_losses == report_s.epoch_losses
        for key in serial.params:
            np.testing.assert_array_equal(parallel.params[key], serial.params[key])

    def test_shared_matrix_is_the_aggregation_input(self, network, pool):
        """Zero-copy: the trainer's fusion buffer is the shared block."""
        workload = build_workload("mlp-tiny", num_samples=64, rng=new_rng(3))
        trainer = DistributedTrainer(
            workload.model, build_scheme("dense", network), seed=1, exec_backend=pool
        )
        try:
            engine = trainer._engine
            assert engine is not None
            assert trainer._grad_matrix is engine._grad.array
            batches = [(workload.x[:4], workload.y[:4])] * 8
            trainer.train_step(batches)
            assert trainer._grad_matrix is engine._grad.array
        finally:
            trainer.close()
        # close() hands back a private copy so training can continue inline.
        assert trainer._engine is None
        trainer.train_step([(workload.x[:4], workload.y[:4])] * 8)

    @pytest.mark.parametrize("scheme_name", SCHEMES)
    def test_elastic_bit_identical_under_churn(self, pool, scheme_name, tmp_path):
        workload = build_workload("mlp-tiny", num_samples=192, rng=new_rng(5))

        def run(exec_backend, subdir):
            trace = TraceSchedule(
                [
                    ChurnEvent(6, "revoke", warned=False),
                    ChurnEvent(13, "join"),
                    ChurnEvent(20, "revoke", warned=True),
                ]
            )
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
                exec_backend=exec_backend,
            )
            try:
                return trainer.run(
                    workload.x, workload.y, iterations=26, local_batch=8, schedule=trace
                )
            finally:
                trainer.close()

        par = run(pool, "par")
        ref = run(None, "ref")
        assert par.losses == ref.losses
        assert par.world_sizes == ref.world_sizes
        assert par.useful_iterations == ref.useful_iterations
        assert par.rollbacks == ref.rollbacks
        assert par.comm_seconds == ref.comm_seconds

    def test_elastic_poisson_churn_parity(self, pool, tmp_path):
        workload = build_workload("mlp-tiny", num_samples=192, rng=new_rng(5))

        def run(exec_backend, subdir):
            schedule = PoissonChurn(0.02, warned_fraction=0.5, rejoin_delay=5)
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
                exec_backend=exec_backend,
            )
            try:
                return trainer.run(
                    workload.x, workload.y, iterations=30, local_batch=8,
                    schedule=schedule,
                )
            finally:
                trainer.close()

        par = run(pool, "par")
        ref = run(None, "ref")
        assert par.losses == ref.losses
        assert par.world_sizes == ref.world_sizes
        assert par.revocations == ref.revocations


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
