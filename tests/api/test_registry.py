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
