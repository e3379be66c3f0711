"""Registries: discovery, aliases, extension."""

import numpy as np
import pytest

from repro.api import registry
from repro.api.registry import (
    CLUSTERS,
    COMPRESSORS,
    CONVERGENCE_ALGORITHMS,
    MODELS,
    SCHEMES,
    Registry,
    available,
    build_cluster,
    build_compressor,
    build_scheme,
    build_workload,
)
from repro.utils.seeding import new_rng


@pytest.fixture
def net():
    return build_cluster("tencent", 2, gpus_per_node=2)


class TestDiscovery:
    def test_available_groups(self):
        groups = available()
        assert set(groups) == {"schemes", "compressors", "models", "clusters"}
        assert "mstopk" in groups["schemes"]
        assert "mstopk" in groups["compressors"]
        assert "mlp" in groups["models"]
        assert "tencent" in groups["clusters"]

    def test_available_single_group_and_unknown(self):
        assert available("schemes") == SCHEMES.available()
        with pytest.raises(KeyError, match="unknown group"):
            available("widgets")

    def test_every_legacy_scheme_name_resolves(self, net):
        for name in (
            "dense", "dense-tree", "tree", "trear", "dense-ring", "ring",
            "2dtar", "torus", "dense-2dtar", "topk", "topk-sgd", "naiveag",
            "gtopk", "gtopk-sgd", "globaltopk", "mstopk", "mstopk-sgd",
            "hitopk", "hitopkcomm", "naiveag-mstopk",
        ):
            assert name in SCHEMES, name
            assert build_scheme(name, net).topology.world_size == 4, name

    def test_convergence_algorithms_are_registered_schemes(self):
        assert CONVERGENCE_ALGORITHMS == ("dense", "topk", "mstopk")
        assert all(name in SCHEMES for name in CONVERGENCE_ALGORITHMS)

    def test_canonical_and_aliases(self):
        assert SCHEMES.canonical("HiTopKComm") == "mstopk"
        assert SCHEMES.canonical("nope") is None
        assert "hitopk" in SCHEMES.aliases_of("mstopk")

    @pytest.mark.parametrize("junk", [3, None, 1.5, ["mstopk"], {"a": 1}])
    def test_a_non_string_is_simply_unknown(self, junk):
        # Names arrive from config files and socket lines.
        assert SCHEMES.canonical(junk) is None
        assert junk not in SCHEMES

    def test_unknown_name_error_lists_available(self, net):
        with pytest.raises(KeyError, match="available: .*mstopk"):
            build_scheme("psgd", net)
        with pytest.raises(KeyError, match="available"):
            build_compressor("lz4")
        with pytest.raises(KeyError, match="available"):
            build_workload("gpt5", num_samples=8, rng=new_rng(0))
        with pytest.raises(KeyError, match="available"):
            build_cluster("azure", 2)


class TestRegistration:
    def test_decorator_registration_and_duplicate(self):
        reg = Registry("widget")

        @reg.register("alpha", aliases=("a",))
        def build_alpha():
            return "alpha!"

        assert reg.get("a")() == "alpha!"
        assert reg.available() == ["alpha"]
        with pytest.raises(KeyError, match="already registered"):
            reg.register("alpha")(build_alpha)
        with pytest.raises(KeyError, match="already registered"):
            reg.register("beta", aliases=("a",))(build_alpha)
        # Explicit overwrite is allowed.
        reg.register("alpha", overwrite=True)(lambda: "alpha2")
        assert reg.get("alpha")() == "alpha2"

    def test_new_name_cannot_shadow_existing_alias(self):
        reg = Registry("widget")
        reg.register("alpha", aliases=("a",))(lambda: "alpha")
        with pytest.raises(KeyError, match="already registered"):
            reg.register("a")(lambda: "shadow")
        # The failed attempt left nothing behind.
        assert reg.get("a")() == "alpha"

    def test_failed_registration_is_retryable(self):
        reg = Registry("widget")
        reg.register("alpha", aliases=("x",))(lambda: 1)
        with pytest.raises(KeyError):
            reg.register("beta", aliases=("x",))(lambda: 2)
        assert "beta" not in reg  # nothing half-registered
        reg.register("beta")(lambda: 2)
        assert reg.get("beta")() == 2

    def test_custom_scheme_end_to_end(self, net):
        name = "test-reg-custom-scheme"
        if name not in SCHEMES:  # idempotent across pytest reruns in-process
            from repro.comm.dense import RingAllReduce

            @registry.register_scheme(name)
            def _build(network, **_):
                return RingAllReduce(network)

        scheme = build_scheme(name, net)
        grads = [np.full(16, float(i)) for i in range(4)]
        out = scheme.aggregate(grads).outputs[0]
        np.testing.assert_allclose(out, np.sum(grads, axis=0))


class TestSchemeBuilders:
    def test_dense_rejects_compressor(self, net):
        for name in ("dense", "dense-ring", "2dtar"):
            with pytest.raises(ValueError, match="does not accept a compressor"):
                build_scheme(name, net, compressor="mstopk")

    def test_sparse_compressor_override(self, net):
        from repro.compression.exact_topk import ExactTopK
        from repro.compression.mstopk import MSTopK

        assert isinstance(build_scheme("mstopk", net).compressor, MSTopK)
        assert isinstance(
            build_scheme("mstopk", net, compressor="exact-topk").compressor, ExactTopK
        )
        assert isinstance(build_scheme("topk", net).compressor, ExactTopK)

    def test_sparse_schemes_carry_error_feedback(self, net):
        assert build_scheme("topk", net).ef is not None
        assert build_scheme("mstopk", net).ef is not None

    def test_n_samplings_reaches_mstopk(self, net):
        scheme = build_scheme("mstopk", net, n_samplings=7)
        assert scheme.compressor.n_samplings == 7

    def test_wire_bytes_reaches_mstopk_dense_steps(self, net):
        from repro.comm.hitopkcomm import STEP_REDUCE_SCATTER

        d = 1 << 20
        fp32, fp16 = (
            build_scheme("mstopk", net, wire_bytes=w).time_model(d).get(STEP_REDUCE_SCATTER)
            for w in (4, 2)
        )
        latency = net.reduce_scatter_time(net.gpus_per_node, 0.0, net.intra)
        assert fp32 - latency == pytest.approx(2 * (fp16 - latency))


class TestClusters:
    def test_presets_are_cloud_instances(self):
        from repro.cluster.cloud_presets import CLOUD_INSTANCES

        for name in CLOUD_INSTANCES:
            assert name in CLUSTERS
        assert CLUSTERS.get("tencent").cloud == "Tencent"
        # Instance-name aliases registered too.
        assert CLUSTERS.canonical("p3.16xlarge") == "aws"

    def test_make_cluster_resolves_via_registry(self):
        from repro.cluster.cloud_presets import make_cluster

        net = make_cluster(2, "18XLARGE320", gpus_per_node=4)
        assert net.topology.world_size == 8

    def test_membership_view_resolves_via_registry(self):
        from repro.elastic.membership import MembershipView

        view = MembershipView(2, 2, instance="c10g1.20xlarge")
        assert view.instance.cloud == "Aliyun"
        with pytest.raises(KeyError, match="available"):
            MembershipView(2, 2, instance="azure")


class TestWorkloads:
    def test_workloads_build_consistently(self):
        for name in MODELS.available():
            w = build_workload(name, num_samples=64, rng=new_rng(1))
            assert w.x.shape[0] == w.y.shape[0] > 0
            params = w.model.init_params(new_rng(2))
            assert params, name

    def test_workload_data_is_seed_deterministic(self):
        a = build_workload("mlp", num_samples=64, rng=new_rng(3))
        b = build_workload("mlp", num_samples=64, rng=new_rng(3))
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_compressor_registry_builders(self):
        from repro.compression.mstopk import MSTopK

        c = build_compressor("mstopk", n_samplings=12)
        assert isinstance(c, MSTopK) and c.n_samplings == 12
        assert build_compressor("exact").name == build_compressor("exact-topk").name

    @pytest.mark.parametrize("name", COMPRESSORS.available())
    def test_every_compressor_and_alias_builds_an_exactly_k_selector(self, name):
        from repro.compression.base import TopKCompressor

        x = new_rng(4).normal(size=300)
        for alias in [name, *COMPRESSORS.aliases_of(name)]:
            compressor = build_compressor(alias)
            assert isinstance(compressor, TopKCompressor), alias
            sent = compressor.select(x, 30, rng=new_rng(5))
            assert sent.nnz == 30 and np.unique(sent.indices).size == 30, alias
            np.testing.assert_array_equal(sent.values, x[sent.indices])


@pytest.fixture
def scratch_registries(monkeypatch):
    """Let a test register components; every registry is restored after."""
    for reg in (SCHEMES, COMPRESSORS, MODELS, CLUSTERS):
        monkeypatch.setattr(reg, "_entries", dict(reg._entries))
        monkeypatch.setattr(reg, "_aliases", dict(reg._aliases))


def _tiny_train_config(**sections) -> dict:
    config = {
        "seed": 3,
        "cluster": {"instance": "tencent", "num_nodes": 2, "gpus_per_node": 2},
        "comm": {"scheme": "mstopk", "density": 0.05},
        "train": {"model": "mlp", "epochs": 2, "num_samples": 128, "local_batch": 8},
    }
    for section, values in sections.items():
        config[section] = {**config[section], **values}
    return config


class TestExtensionHooks:
    """The public ``register_*`` decorators reach config, build and run."""

    def test_a_registered_compressor_is_what_a_run_selects_with(self, scratch_registries):
        from repro.api import RunConfig, run
        from repro.compression.exact_topk import ExactTopK

        calls = []

        class CountingTopK(ExactTopK):
            def select(self, x, k, *, rng=None):
                calls.append(k)
                return super().select(x, k, rng=rng)

            def select_batch(self, xs, ks, *, rng=None):
                calls.append(ks)
                return super().select_batch(xs, ks, rng=rng)

        @registry.register_compressor("counting-topk", aliases=("counting",))
        def _build(*, n_samplings=30):
            return CountingTopK()

        config = RunConfig.from_dict(_tiny_train_config(comm={"compressor": "counting"}))
        report = run(config)
        assert calls, "the registered compressor was never asked to select"
        assert np.isfinite(report.final_loss)
        assert report.final_loss == report.training.epoch_losses[-1]

    def test_an_unregistered_compressor_fails_config_load(self):
        from repro.api import RunConfig
        from repro.utils.registry import ConfigError

        with pytest.raises(ConfigError, match="registered: .*mstopk"):
            RunConfig.from_dict(_tiny_train_config(comm={"compressor": "counting"}))

    def test_a_registered_model_trains_through_a_run(self, scratch_registries):
        from repro.api import RunConfig, run

        built = []

        @registry.register_model("spiral-narrow")
        def _build(*, num_samples, rng):
            from repro.models.nn.mlp import MLPClassifier
            from repro.train.synthetic import make_spiral_classification

            x, y = make_spiral_classification(num_samples, num_classes=4, rng=rng)
            model = MLPClassifier(input_dim=2, hidden=(8,), num_classes=4)
            built.append(model)
            return registry.Workload(
                "spiral-narrow", model, x, y, "top-1 accuracy",
                lambda p, vx, vy: model.evaluate(p, vx, vy, topk=1),
            )

        assert "spiral-narrow" in available("models")
        report = run(RunConfig.from_dict(_tiny_train_config(train={"model": "spiral-narrow"})))
        assert len(built) == 1
        assert report.training.iterations > 0
        assert np.isfinite(report.final_loss)

    def test_a_registered_cluster_preset_shapes_the_network(self, scratch_registries):
        import dataclasses

        from repro.api import RunConfig
        from repro.cluster.cloud_presets import TENCENT_18XLARGE320

        fast = dataclasses.replace(
            TENCENT_18XLARGE320, instance="fast-100g", network_gbps=100
        )
        registry.register_cluster("fast", aliases=(fast.instance,))(fast)
        net = build_cluster("fast-100g", 2, gpus_per_node=2)
        base = build_cluster("tencent", 2, gpus_per_node=2)
        assert net.topology.world_size == 4
        assert net.inter.beta == pytest.approx(base.inter.beta / 4)
        assert net.inter.alpha == base.inter.alpha
        assert net.intra.alpha == base.intra.alpha
        RunConfig.from_dict(_tiny_train_config(cluster={"instance": "fast"}))

    def test_registrations_do_not_outlive_the_fixture(self):
        assert "counting-topk" not in COMPRESSORS
        assert "spiral-narrow" not in MODELS
        assert "fast" not in CLUSTERS
