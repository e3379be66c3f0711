"""Distributed trainer: the data-parallel equivalence theorem.

The defining property of synchronous data-parallel SGD (paper Eq. 1):
``P`` workers with local batch ``b`` and summed-then-averaged gradients
must take *exactly* the same step as one worker processing the combined
``P·b`` batch.  The dense trainer is tested against that; the sparse
trainers are tested for state handling and improvement.
"""

import sys

import numpy as np
import pytest

from repro.api import build_scheme
from repro.api.registry import MODELS, build_workload
from repro.cluster.cloud_presets import make_cluster
from repro.models import autodiff
from repro.models.nn.mlp import MLPClassifier
from repro.optim.sgd import SGD
from repro.train import trainer as trainer_module
from repro.train.synthetic import make_spiral_classification
from repro.train.trainer import DistributedTrainer
from repro.utils.seeding import new_rng
from tests.models.row_oracles import single_worker


@pytest.fixture
def setup(rng):
    x, y = make_spiral_classification(512, num_classes=4, rng=rng)
    model = MLPClassifier(input_dim=2, hidden=(16,), num_classes=4)
    return model, x, y


#: Agreement of two summation orders of one step, per training dtype.
STEP_TOLERANCE = {np.float64: dict(rtol=1e-9, atol=1e-11), np.float32: dict(rtol=1e-5, atol=1e-8)}


class TestDataParallelEquivalence:
    def test_dense_equals_large_batch_single_worker(self, setup, mlp_dtype):
        """Equal up to the order the per-sample terms are summed in — the
        one difference between the two, sized by the dtype's epsilon."""
        model, x, y = setup
        net = make_cluster(2, "tencent", gpus_per_node=2)
        scheme = build_scheme("dense", net)
        trainer = DistributedTrainer(
            model, scheme, optimizer=SGD(lr=0.1, momentum=0.0), seed=0
        )

        # One synchronous step with 4 workers x batch 8.
        batches = [(x[w * 8 : (w + 1) * 8], y[w * 8 : (w + 1) * 8]) for w in range(4)]
        trainer.train_step(batches)

        # Reference: single worker, batch 32, same init.
        reference = MLPClassifier(input_dim=2, hidden=(16,), num_classes=4)
        ref_params = reference.init_params(new_rng(1))  # seed+1, as in trainer
        _, grads, _ = single_worker(reference.loss_and_grad_workers, ref_params, x[:32], y[:32])
        opt = SGD(lr=0.1, momentum=0.0)
        opt.step(ref_params, grads)

        for name in ref_params:
            assert trainer.params[name].dtype == ref_params[name].dtype == mlp_dtype
            np.testing.assert_allclose(
                trainer.params[name], ref_params[name], **STEP_TOLERANCE[mlp_dtype.type]
            )

    def test_2dtar_matches_tree_dense(self, setup):
        model, x, y = setup
        net = make_cluster(2, "tencent", gpus_per_node=2)
        results = {}
        for name in ("dense", "2dtar"):
            trainer = DistributedTrainer(
                model, build_scheme(name, net), optimizer=SGD(lr=0.1, momentum=0.0), seed=0
            )
            batches = [
                (x[w * 8 : (w + 1) * 8], y[w * 8 : (w + 1) * 8]) for w in range(4)
            ]
            trainer.train_step(batches)
            results[name] = {k: v.copy() for k, v in trainer.params.items()}
        for name in results["dense"]:
            np.testing.assert_allclose(
                results["dense"][name], results["2dtar"][name], rtol=1e-9
            )


class TestTrainingLoop:
    def test_report_structure(self, setup):
        model, x, y = setup
        net = make_cluster(2, "tencent", gpus_per_node=2)
        trainer = DistributedTrainer(model, build_scheme("dense", net), seed=0)
        report = trainer.train(
            x, y, epochs=2, local_batch=16, val_x=x[:64], val_y=y[:64]
        )
        assert len(report.epoch_losses) == 2
        assert len(report.val_metrics) == 2
        assert report.iterations > 0
        assert report.comm_seconds > 0

    def test_loss_improves(self, setup):
        model, x, y = setup
        net = make_cluster(2, "tencent", gpus_per_node=2)
        trainer = DistributedTrainer(
            model, build_scheme("dense", net), optimizer=SGD(lr=0.1), seed=0
        )
        report = trainer.train(x, y, epochs=6, local_batch=16)
        assert report.epoch_losses[-1] < report.epoch_losses[0]

    def test_sparse_scheme_trains(self, setup):
        model, x, y = setup
        net = make_cluster(2, "tencent", gpus_per_node=2)
        trainer = DistributedTrainer(
            model,
            build_scheme("mstopk", net, density=0.1),
            optimizer=SGD(lr=0.1),
            seed=0,
        )
        report = trainer.train(x, y, epochs=6, local_batch=16)
        assert report.epoch_losses[-1] < report.epoch_losses[0]

    def test_batch_count_validation(self, setup):
        model, x, y = setup
        net = make_cluster(2, "tencent", gpus_per_node=2)
        trainer = DistributedTrainer(model, build_scheme("dense", net), seed=0)
        with pytest.raises(ValueError):
            trainer.train_step([(x[:8], y[:8])])  # needs 4 batches

    @pytest.mark.parametrize("workload_name", MODELS.available())
    def test_empty_worker_batch_is_a_one_line_error(self, workload_name):
        """Not a reshape error from inside numpy (mlp) and not a
        silent ``accuracy: nan`` under a RuntimeWarning (cnn, transformer)."""
        workload = build_workload(workload_name, num_samples=32, rng=new_rng(1))
        net = make_cluster(4, "tencent", gpus_per_node=2)
        trainer = DistributedTrainer(workload.model, build_scheme("dense", net), seed=0)
        x, y = workload.x, workload.y
        batches = [(x[:4], y[:4])] * 7 + [(x[:0], y[:0])]
        before = {name: value.copy() for name, value in trainer.params.items()}
        with pytest.raises(ValueError, match=r"^worker 7's batch is empty \(x shape \(0, "):
            trainer.train_step(batches)
        for name, value in before.items():
            np.testing.assert_array_equal(trainer.params[name], value)

    @pytest.mark.parametrize("workload_name", ["mlp", "cnn", "transformer"])
    def test_fusion_buffer_holds_each_workers_gradient(self, workload_name):
        """After a step, row ``i`` of the fusion buffer is exactly worker
        ``i``'s gradient as the model computes it alone."""
        workload = build_workload(workload_name, num_samples=64, rng=new_rng(2))
        net = make_cluster(2, "tencent", gpus_per_node=2)
        trainer = DistributedTrainer(workload.model, build_scheme("dense", net), seed=4)
        x, y = workload.x, workload.y
        batches = [(x[i : i + 4], y[i : i + 4]) for i in range(0, 16, 4)]
        params = {name: value.copy() for name, value in trainer.params.items()}
        trainer.train_step(batches)
        for row, (bx, by) in zip(trainer._grads, batches):
            _, grads, _ = single_worker(workload.model.loss_and_grad_workers, params, bx, by)
            want = np.concatenate([grads[name].ravel() for name in params])
            np.testing.assert_array_equal(row, want)

    @pytest.mark.parametrize("bad_rows", [[3], [0, 1, 2, 3]], ids=["per-row", "blocked"])
    def test_a_failed_step_leaves_no_trace(self, bad_rows):
        """A step whose gradient computation raises changes neither the
        parameters nor the scheme's rng: the next good step is the one a
        fresh trainer would take."""
        workload = build_workload("mlp-tiny", num_samples=64, rng=new_rng(0))
        net = make_cluster(2, "tencent", gpus_per_node=2)
        x, y = workload.x, workload.y
        good = [(x[i : i + 4], y[i : i + 4]) for i in range(0, 16, 4)]
        bad = [
            (bx[:, :1], by) if worker in bad_rows else (bx, by)
            for worker, (bx, by) in enumerate(good)
        ]
        failed, fresh = (
            DistributedTrainer(workload.model, build_scheme("mstopk", net, density=0.05), seed=1)
            for _ in range(2)
        )
        before = {name: value.copy() for name, value in failed.params.items()}
        with pytest.raises(ValueError):
            failed.train_step(bad)
        for name, value in before.items():
            np.testing.assert_array_equal(failed.params[name], value)
        assert failed.train_step(good) == fresh.train_step(good)
        for name in fresh.params:
            np.testing.assert_array_equal(failed.params[name], fresh.params[name])

    @pytest.mark.parametrize(
        "mismatch", ["x-shape", "y-shape", "rows-short", "rows-over", "worker-0-short"]
    )
    @pytest.mark.parametrize("route", ["matrix", "node-sums"])
    def test_batches_that_do_not_stack_are_refused_before_any_model_call(
        self, monkeypatch, route, mismatch
    ):
        """A step is one stacked ``(W, B, ...)`` block: a worker whose batch
        has other shapes than worker 0's (other features, fewer labels than
        samples, fewer or more samples; or worker 0 is the odd one, and
        worker 1 is named) is a one-line error before the model is
        called (no tape pass, where a call would have recorded), and the
        parameters, the error-feedback residuals and the next good step
        are those of a trainer that never saw the bad step."""
        monkeypatch.setattr(trainer_module, "_SINK_BYTES", 0 if route == "node-sums" else sys.maxsize)
        passes, tape_pass = [], autodiff.tape_pass
        monkeypatch.setattr(autodiff, "tape_pass", lambda *args: passes.append(1) or tape_pass(*args))
        net = make_cluster(2, "tencent", gpus_per_node=2)
        refusing, clean = (
            DistributedTrainer(
                MLPClassifier(3, (8,), 4), build_scheme("mstopk", net, density=0.3), seed=2
            )
            for _ in range(2)
        )
        assert refusing._aggregate == {"matrix": "aggregate", "node-sums": "aggregate_node_sums"}[route]
        rng = np.random.default_rng(5)
        good = [
            [(rng.normal(size=(4, 3)).astype(np.float32), rng.integers(0, 4, size=4)) for _ in range(4)]
            for _ in range(2)
        ]
        bad = list(good[0])
        odd = 0 if mismatch == "worker-0-short" else 2
        bx, by = bad[odd]
        bad[odd] = {
            "x-shape": lambda: (bx[:, :2], by),
            "y-shape": lambda: (bx, by[:3]),
            "rows-short": lambda: (bx[:3], by[:3]),
            "rows-over": lambda: (np.concatenate([bx, bx[:1]]), np.concatenate([by, by[:1]])),
            "worker-0-short": lambda: (bx[:3], by[:3]),
        }[mismatch]()
        named = odd or 1  # the first worker whose shapes are not worker 0's
        shapes = [f"(x shape {np.shape(bad[i][0])}, y shape {np.shape(bad[i][1])})" for i in (named, 0)]
        want = f"worker {named}'s batch {shapes[0]} does not stack with worker 0's {shapes[1]}"

        def state(trainer):
            ef = trainer.scheme.ef
            residuals = {key: ef.residual(key).tobytes() for key in ef.keys()}
            return {name: value.tobytes() for name, value in trainer.params.items()}, residuals

        for step in good:
            before = state(refusing), len(passes)
            with pytest.raises(ValueError) as err:
                refusing.train_step(bad)
            message = str(err.value)
            assert message == want and "(x shape (4, 3), y shape (4,))" in message
            assert "\n" not in message
            assert (state(refusing), len(passes)) == before == (state(clean), len(passes))
            assert refusing.train_step(step) == clean.train_step(step)
        assert state(refusing) == state(clean) and len(passes) == 2  # one record each
        assert state(clean)[1]  # there were residuals to keep

    def test_dataset_too_small(self, rng):
        model = MLPClassifier(input_dim=2, hidden=(4,), num_classes=4)
        net = make_cluster(4, "tencent", gpus_per_node=8)  # 32 workers
        trainer = DistributedTrainer(model, build_scheme("dense", net), seed=0)
        x, y = make_spiral_classification(16, num_classes=4, rng=rng)
        with pytest.raises(ValueError):
            trainer.train(x, y, epochs=1, local_batch=4)

    def test_a_batch_above_an_uneven_smallest_shard_takes_its_size(self, rng):
        """10 samples over 4 workers shard 3 / 3 / 2 / 2: a ``local_batch``
        of 4 trains one stacked step of 2 an epoch, as ``local_batch=2``
        does, rather than a step whose batches do not stack."""
        model = MLPClassifier(input_dim=2, hidden=(4,), num_classes=4)
        net = make_cluster(2, "tencent", gpus_per_node=2)
        x, y = make_spiral_classification(12, num_classes=4, rng=rng)
        reports = [
            DistributedTrainer(model, build_scheme("dense", net), seed=0).train(
                x[:10], y[:10], epochs=2, local_batch=batch
            )
            for batch in (4, 2)
        ]
        assert reports[0].iterations == 2
        assert reports[0].epoch_losses == reports[1].epoch_losses

    def test_same_seed_reproducible(self, setup):
        model, x, y = setup
        net = make_cluster(2, "tencent", gpus_per_node=2)
        finals = []
        for _ in range(2):
            trainer = DistributedTrainer(
                model, build_scheme("dense", net), optimizer=SGD(lr=0.1), seed=9
            )
            report = trainer.train(x, y, epochs=2, local_batch=16)
            finals.append(report.epoch_losses[-1])
        assert finals[0] == finals[1]
