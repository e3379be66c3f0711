"""Full-system integration tests.

These wire every subsystem together the way the paper's system does:
each node's DataCache loader feeds its workers, the real model trains
through HiTopKComm with MSTopK + shard-level error feedback, LARS rates
come through PTO, and checkpoints punctuate the run.
"""

import numpy as np
import pytest

from repro.api import build_scheme
from repro.cluster.cloud_presets import make_cluster
from repro.data.cache import DataCache
from repro.data.dataset import SyntheticImageDataset
from repro.data.loader import CachedDataLoader
from repro.models.nn.mlp import MLPClassifier
from repro.optim.lars import LARS, lars_coefficients
from repro.optim.sgd import SGD
from repro.pto.lars_pto import lars_learning_rates_pto
from repro.train.checkpoint import load_checkpoint, save_checkpoint
from repro.train.synthetic import make_spiral_classification, train_val_split
from repro.train.trainer import DistributedTrainer
from tests.models.row_oracles import single_worker


@pytest.fixture(scope="module")
def cluster():
    return make_cluster(2, "tencent", gpus_per_node=2)


class TestFullPipeline:
    def test_loader_cache_trainer_end_to_end(self, cluster):
        """Cached data, one loader per node's DataCache partition, feeding
        a sparsified training run."""
        dataset = SyntheticImageDataset(64, resolution=8, num_classes=4, seed=1)
        topo = cluster.topology
        caches = [
            DataCache(dataset, node=node, num_nodes=topo.num_nodes)
            for node in range(topo.num_nodes)
        ]
        loaders = [CachedDataLoader(cache, 4, seed=5 + node) for node, cache in enumerate(caches)]

        model = MLPClassifier(input_dim=8 * 8 * 3, hidden=(16,), num_classes=4)
        trainer = DistributedTrainer(
            model, build_scheme("mstopk", cluster, density=0.1),
            optimizer=SGD(lr=0.05), seed=0,
        )

        losses = []
        for epoch in range(3):
            # One synchronous batch per worker, each drawn from its
            # node's loader and so read through that node's cache.
            streams = [loader.epoch_batches(epoch) for loader in loaders]
            batches = [next(streams[topo.node_of(rank)])[:2] for rank in range(topo.world_size)]
            loss, _ = trainer.train_step(batches)
            losses.append(loss)

        # Learning happened and the cache transitioned tiers.
        assert losses[-1] < losses[0] * 1.2
        assert caches[0].stats.memory_hits > 0

    def test_lars_through_pto_matches_serial(self, cluster, rng):
        """The PTO path plugged into the LARS optimizer is bit-exact."""
        model = MLPClassifier(input_dim=2, hidden=(8,), num_classes=4)
        params = model.init_params(rng)
        x, y = make_spiral_classification(64, num_classes=4, rng=rng)
        _, grads, _ = single_worker(model.loss_and_grad_workers, params, x, y)

        names = list(params)
        weights = [params[n] for n in names]
        gradients = [grads[n] for n in names]

        serial = lars_coefficients(weights, gradients, eta=0.1)
        pto = lars_learning_rates_pto(cluster, weights, gradients, eta=0.1)
        np.testing.assert_allclose(pto.result, serial)

        # And the optimizer consumes either identically.
        lars_a = LARS(lr=0.1, skip_keywords=())
        lars_b = LARS(lr=0.1, skip_keywords=())
        params_a = {k: v.copy() for k, v in params.items()}
        params_b = {k: v.copy() for k, v in params.items()}
        lars_a.step(params_a, grads)
        lars_b.step(
            params_b, grads, precomputed_rates=dict(zip(names, pto.result))
        )
        for name in names:
            np.testing.assert_allclose(params_a[name], params_b[name])

    def test_training_with_checkpoint_mid_run(self, cluster, tmp_path, rng):
        """Sparsified training checkpointed and resumed mid-epoch."""
        x, y = make_spiral_classification(512, num_classes=4, rng=rng)
        train_x, train_y, val_x, val_y = train_val_split(x, y)
        model = MLPClassifier(input_dim=2, hidden=(24,), num_classes=4)

        trainer = DistributedTrainer(
            model, build_scheme("mstopk", cluster, density=0.1),
            optimizer=SGD(lr=0.05, momentum=0.9), seed=0,
        )
        trainer.train(train_x, train_y, epochs=3, local_batch=16)
        path = save_checkpoint(trainer, tmp_path / "mid")

        resumed = DistributedTrainer(
            model, build_scheme("mstopk", cluster, density=0.1),
            optimizer=SGD(lr=0.05, momentum=0.9), seed=0,
        )
        load_checkpoint(resumed, path)
        report = resumed.train(
            train_x, train_y, epochs=3, local_batch=16,
            val_x=val_x, val_y=val_y,
            evaluate=lambda p, vx, vy: model.evaluate(p, vx, vy, topk=1),
        )
        assert report.final_val_metric > 0.5

    def test_all_schemes_agree_on_direction(self, cluster, rng):
        """Every aggregation scheme produces a descent direction.

        The sparsified aggregate must positively correlate with the
        dense gradient (cosine > 0) — the property that makes the whole
        compression business sound.
        """
        x, y = make_spiral_classification(256, num_classes=4, rng=rng)
        model = MLPClassifier(input_dim=2, hidden=(12,), num_classes=4)
        params = model.init_params(rng)

        worker_grads = []
        for w in range(4):
            rows = slice(w * 32, (w + 1) * 32)
            _, grads, _ = single_worker(model.loss_and_grad_workers, params, x[rows], y[rows])
            worker_grads.append(np.concatenate([grads[k].ravel() for k in params]))
        worker_grads = np.stack(worker_grads)
        dense_sum = worker_grads.sum(axis=0)

        for name in ("dense", "2dtar", "topk", "mstopk", "naiveag-mstopk"):
            scheme = build_scheme(name, cluster, density=0.2)
            out = scheme.aggregate(worker_grads, rng=rng).aggregate
            cosine = out @ dense_sum / (
                np.linalg.norm(out) * np.linalg.norm(dense_sum) + 1e-12
            )
            assert cosine > 0.3, f"{name}: cosine {cosine:.3f}"
