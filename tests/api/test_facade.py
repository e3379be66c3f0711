"""run(RunConfig) reproduces the legacy hand-wired paths bit-identically."""

import dataclasses

import numpy as np
import pytest

from repro.api import RunConfig, run
from repro.utils.bench import validate_bench_payload


def _train_config_json(scheme: str) -> str:
    return (
        '{"name": "parity-%s", "seed": 7,'
        ' "cluster": {"instance": "tencent", "num_nodes": 2, "gpus_per_node": 2},'
        ' "comm": {"scheme": "%s", "density": 0.05},'
        ' "train": {"model": "mlp", "epochs": 3, "num_samples": 256,'
        ' "local_batch": 16, "lr": 0.05, "momentum": 0.9}}'
    ) % (scheme, scheme)


#: A small CNN run, to exercise the convolution kernels between two runs.
CNN_CONFIG = {
    "name": "between",
    "seed": 3,
    "cluster": {"instance": "tencent", "num_nodes": 2, "gpus_per_node": 2},
    "comm": {"scheme": "mstopk", "density": 0.05},
    "train": {"model": "cnn", "epochs": 1, "num_samples": 96, "local_batch": 4},
}


def _legacy_train(scheme: str):
    """The pre-facade wiring, spelled out by hand (seed-era idiom)."""
    from repro.cluster.cloud_presets import make_cluster
    from repro.models.nn.mlp import MLPClassifier
    from repro.optim.sgd import SGD
    from repro.api import build_scheme
    from repro.train.synthetic import make_spiral_classification, train_val_split
    from repro.train.trainer import DistributedTrainer
    from repro.utils.seeding import new_rng

    rng = new_rng(7)
    x, y = make_spiral_classification(256, num_classes=4, rng=rng)
    model = MLPClassifier(input_dim=2, hidden=(48, 48), num_classes=4)
    net = make_cluster(2, "tencent", gpus_per_node=2)
    trainer = DistributedTrainer(
        model, build_scheme(scheme, net, density=0.05),
        optimizer=SGD(lr=0.05, momentum=0.9), seed=7,
    )
    train_x, train_y, val_x, val_y = train_val_split(np.asarray(x), np.asarray(y))
    report = trainer.train(
        train_x, train_y, epochs=3, local_batch=16,
        val_x=val_x, val_y=val_y,
        evaluate=lambda p, vx, vy: model.evaluate(p, vx, vy, topk=1),
    )
    return report, trainer.params


class TestTrainParity:
    @pytest.mark.parametrize("scheme", ["dense", "mstopk"])
    def test_bit_identical_to_legacy(self, scheme):
        facade = run(RunConfig.from_json(_train_config_json(scheme)))
        legacy, legacy_params = _legacy_train(scheme)

        assert facade.training.epoch_losses == legacy.epoch_losses
        assert facade.training.val_metrics == legacy.val_metrics
        assert facade.training.comm_seconds == legacy.comm_seconds
        assert facade.training.iterations == legacy.iterations

    def test_run_is_deterministic(self):
        config = RunConfig.from_json(_train_config_json("mstopk"))
        a, b = run(config), run(config)
        assert a.summary == b.summary
        assert a.training.epoch_losses == b.training.epoch_losses

    @pytest.mark.parametrize("scheme", ["dense", "topk", "mstopk"])
    def test_a_run_is_unaffected_by_the_runs_before_it(self, scheme):
        """Training state lives in the run: after a CNN run and an
        elastic run in the same process, the same config reproduces its
        first report bit for bit."""
        config = RunConfig.from_json(_train_config_json(scheme))
        first = run(config)
        run(RunConfig.from_dict(CNN_CONFIG))
        run(RunConfig.from_json(ELASTIC_JSON))
        again = run(config)
        assert again.summary == first.summary
        assert dataclasses.asdict(again.training) == dataclasses.asdict(first.training)

    def test_seed_changes_run(self):
        base = RunConfig.from_json(_train_config_json("mstopk"))
        other = RunConfig.from_dict({**base.to_dict(), "seed": 8})
        assert run(base).training.epoch_losses != run(other).training.epoch_losses


ELASTIC_JSON = (
    '{"name": "parity-elastic", "seed": 13,'
    ' "cluster": {"instance": "tencent", "num_nodes": 3, "gpus_per_node": 2},'
    ' "comm": {"scheme": "mstopk", "density": 0.05},'
    ' "train": {"model": "mlp-tiny", "num_samples": 256, "local_batch": 8,'
    ' "data_seed": 99},'
    ' "elastic": {"iterations": 40, "schedule": "poisson", "rate": 0.02,'
    ' "warned_fraction": 0.5, "rejoin_delay": 20, "checkpoint_every": 15,'
    ' "compute_seconds": 0.3, "checkpoint_seconds": 0.5, "restart_seconds": 5.0,'
    ' "timing_d": 25000000, "sigma": 0.1}}'
)


class TestElasticParity:
    def test_bit_identical_to_legacy_elastic(self):
        facade = run(RunConfig.from_json(ELASTIC_JSON))

        from repro.cluster.variability import VariabilityModel
        from repro.elastic.elastic_trainer import ElasticTrainer
        from repro.elastic.events import PoissonChurn
        from repro.models.nn.mlp import MLPClassifier
        from repro.optim.sgd import SGD
        from repro.train.synthetic import make_spiral_classification
        from repro.utils.seeding import new_rng

        x, y = make_spiral_classification(256, num_classes=4, rng=new_rng(99))
        trainer = ElasticTrainer(
            MLPClassifier(input_dim=2, hidden=(12,), num_classes=4),
            scheme="mstopk",
            density=0.05,
            instance="tencent",
            num_nodes=3,
            gpus_per_node=2,
            optimizer=SGD(lr=0.05, momentum=0.9),
            seed=13,
            checkpoint_every=15,
            compute_seconds=0.3,
            checkpoint_seconds=0.5,
            restart_seconds=5.0,
            timing_d=25_000_000,
            variability=VariabilityModel(sigma=0.1),
        )
        legacy = trainer.run(
            x, y, iterations=40, local_batch=8,
            schedule=PoissonChurn(0.02, warned_fraction=0.5, rejoin_delay=20),
        )

        assert facade.elastic_run.losses == legacy.losses
        assert facade.elastic_run.world_sizes == legacy.world_sizes
        assert facade.elastic_run.revocations == legacy.revocations
        assert facade.elastic_run.goodput == legacy.goodput
        assert facade.elastic_run.total_seconds == legacy.total_seconds

    def test_elastic_run_is_unaffected_by_the_runs_before_it(self):
        config = RunConfig.from_json(ELASTIC_JSON)
        first = run(config)
        run(RunConfig.from_dict(CNN_CONFIG))
        again = run(config)
        assert dataclasses.asdict(again.elastic_run) == dataclasses.asdict(first.elastic_run)

    def test_elastic_report_carries_cost(self):
        report = run(RunConfig.from_json(ELASTIC_JSON))
        assert report.mode == "elastic"
        assert report.cost.spot_cost > 0
        assert report.summary["goodput_it_per_s"] == report.elastic_run.goodput

    def test_elastic_honours_compressor_override(self):
        """comm.compressor must reach the elastic scheme rebuilds."""
        from repro.compression.exact_topk import ExactTopK
        from repro.compression.mstopk import MSTopK
        from repro.elastic.elastic_trainer import ElasticTrainer
        from repro.models.nn.mlp import MLPClassifier

        def make(**kwargs):
            return ElasticTrainer(
                MLPClassifier(input_dim=2, hidden=(12,), num_classes=4),
                scheme="mstopk",
                **kwargs,
            )

        assert isinstance(make().trainer.scheme.compressor, MSTopK)
        overridden = make(compressor="exact-topk")
        assert isinstance(overridden.trainer.scheme.compressor, ExactTopK)
        # And the config field actually flows through run().
        data = RunConfig.from_json(ELASTIC_JSON).to_dict()
        data["elastic"]["iterations"] = 5
        data["comm"]["compressor"] = "exact-topk"
        report = run(RunConfig.from_dict(data))
        assert report.config["comm"]["compressor"] == "exact-topk"
        assert report.summary["useful_iterations"] == 5

    def test_elastic_accepts_cluster_alias(self):
        """Instance aliases must survive the whole elastic pipeline
        (membership re-derivation + spot-cost profile lookup)."""
        data = RunConfig.from_json(ELASTIC_JSON).to_dict()
        data["cluster"]["instance"] = "p3.16xlarge"  # alias of "aws"
        data["elastic"]["iterations"] = 10
        report = run(RunConfig.from_dict(data))
        assert report.mode == "elastic"
        assert report.cost.cloud == "aws"

    def test_final_loss_is_the_elastic_runs_last_word(self):
        data = RunConfig.from_json(ELASTIC_JSON).to_dict()
        data["elastic"]["iterations"] = 5
        report = run(RunConfig.from_dict(data))
        assert report.training is None
        assert report.final_loss == report.elastic_run.final_loss
        assert np.isfinite(report.final_loss)


class TestRunReport:
    def test_bench_payload_passes_schema_gate(self):
        report = run(RunConfig.from_json(_train_config_json("mstopk")))
        payload = report.bench_payload()
        validate_bench_payload(payload)
        assert payload["bench"] == "run_parity-mstopk"
        assert payload["meta"]["seed"] == 7
        assert len(payload["rows"]) == 1

    def test_elastic_bench_payload_passes_schema_gate(self):
        report = run(RunConfig.from_json(ELASTIC_JSON))
        validate_bench_payload(report.bench_payload("elastic_smoke"))

    def test_report_echoes_config(self):
        config = RunConfig.from_json(_train_config_json("dense"))
        report = run(config)
        assert RunConfig.from_dict(report.config) == config
        assert report.scheme == "dense"
        assert report.model == "mlp"
        assert report.world_size == 4

    def test_format_is_human_readable(self):
        report = run(RunConfig.from_json(_train_config_json("dense")))
        text = report.format()
        assert "final_loss" in text and "parity-dense" in text
