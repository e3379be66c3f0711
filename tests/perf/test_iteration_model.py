"""Iteration-time model composition."""

import pytest

from repro.api.registry import SCHEMES, build_scheme
from repro.models.profiles import resnet50_profile
from repro.perf.iteration_model import IterationModel, io_visible_time


@pytest.fixture
def model_224(testbed):
    return IterationModel(
        network=testbed,
        profile=resnet50_profile(),
        scheme="mstopk",
        resolution=224,
        local_batch=256,
    )


class TestComposition:
    def test_breakdown_components(self, model_224):
        breakdown = model_224.breakdown()
        for key in ("io", "ff_bp", "compression", "communication", "lars", "sync"):
            assert key in breakdown
            assert breakdown.get(key) >= 0

    def test_throughput_formula(self, model_224):
        t = model_224.iteration_time()
        assert model_224.throughput() == pytest.approx(256 * 128 / t)

    def test_scaling_efficiency_bounded(self, model_224):
        se = model_224.scaling_efficiency()
        assert 0 < se <= 1.0

    def test_ffbp_from_calibration(self, model_224):
        assert model_224.t_ffbp() == pytest.approx(256 / 1240)

    def test_string_scheme_coerced(self, testbed):
        model = IterationModel(
            network=testbed,
            profile=resnet50_profile(),
            scheme="2dtar",
            resolution=224,
            local_batch=256,
        )
        assert model.scheme == "2dtar"

    def test_alias_stored_canonical(self, testbed):
        model = IterationModel(
            network=testbed,
            profile=resnet50_profile(),
            scheme="dense-tree",
            resolution=224,
            local_batch=256,
        )
        assert model.scheme == "dense"

    def test_unknown_scheme_raises(self, testbed):
        with pytest.raises(KeyError, match="warpdrive"):
            IterationModel(
                network=testbed,
                profile=resnet50_profile(),
                scheme="warpdrive",
                resolution=224,
                local_batch=256,
            )

    def test_batch_validation(self, testbed):
        with pytest.raises(ValueError):
            IterationModel(
                network=testbed,
                profile=resnet50_profile(),
                scheme="dense",
                resolution=224,
                local_batch=0,
            )


class TestSchemeEffects:
    def _model(self, testbed, kind, **kw):
        return IterationModel(
            network=testbed,
            profile=resnet50_profile(),
            scheme=kind,
            resolution=224,
            local_batch=256,
            **kw,
        )

    def test_topk_compression_exceeds_ffbp(self, testbed):
        # The Fig. 1 finding that motivates MSTopK.
        model = self._model(testbed, "topk")
        breakdown = model.breakdown()
        assert breakdown.get("compression") > breakdown.get("ff_bp")

    def test_mstopk_compression_negligible(self, testbed):
        model = self._model(testbed, "mstopk")
        breakdown = model.breakdown()
        assert breakdown.get("compression") < 0.01 * breakdown.get("ff_bp") + 0.005

    def test_dense_tree_has_zero_compression(self, testbed):
        model = self._model(testbed, "dense")
        assert model.breakdown().get("compression") == 0.0

    def test_pto_reduces_lars(self, testbed):
        with_pto = self._model(testbed, "mstopk", use_pto=True)
        without = self._model(testbed, "mstopk", use_pto=False)
        assert with_pto.t_lars() < without.t_lars()

    def test_datacache_reduces_io(self, testbed):
        cached = self._model(testbed, "mstopk", use_datacache=True)
        naive = self._model(testbed, "mstopk", use_datacache=False)
        assert cached.t_io() < naive.t_io() / 5


#: Every registered scheme name and alias.
SCHEME_NAMES = sorted(
    {alias for name in SCHEMES.available() for alias in (name, *SCHEMES.aliases_of(name))}
)


class TestSinglePricingRoute:
    """Each scheme is priced by its own builder and time model."""

    @pytest.mark.parametrize("contention", [1.0, 2.5])
    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_priced_by_the_schemes_own_model(self, testbed, name, contention):
        profile = resnet50_profile()
        model = IterationModel(
            network=testbed,
            profile=profile,
            scheme=name,
            resolution=224,
            local_batch=256,
            density=0.001,
            contention=contention,
        )
        cal = model.cal
        wire_bytes = (
            cal.dense_baseline_wire_bytes
            if SCHEMES.canonical(name) == "dense"
            else cal.commlib_wire_bytes
        )
        scheme = build_scheme(
            name, testbed.contended(contention), density=0.001, wire_bytes=wire_bytes
        )
        selection, communication = scheme.selection_and_communication(profile.num_params)
        if scheme.dense:
            visible = max(0.0, communication - cal.dense_overlap_fraction * model.t_ffbp())
        else:
            visible = communication + cal.sparse_pipeline_overhead
        breakdown = model.breakdown()
        assert breakdown.get("compression") == selection
        assert breakdown.get("communication") == visible
        assert selection >= 0 and communication > 0

    def test_selection_comes_out_of_the_schemes_breakdown(self, testbed):
        d = resnet50_profile().num_params
        for name, step in (("mstopk", "mstopk"), ("gtopk", "select")):
            scheme = build_scheme(name, testbed, density=0.001)
            steps = scheme.time_model(d)
            selection, communication = scheme.selection_and_communication(d)
            assert selection == steps.get(step) > 0
            assert communication == steps.total - selection
        for name in ("dense", "dense-ring", "2dtar"):
            scheme = build_scheme(name, testbed)
            assert scheme.selection_and_communication(d) == (0.0, scheme.time_model(d).total)

    def test_naiveag_selection_follows_its_compressor(self, testbed):
        from repro.cluster.gpu import exact_topk_gpu_time, mstopk_gpu_time

        d = resnet50_profile().num_params
        exact = build_scheme("topk", testbed, density=0.001)
        streaming = build_scheme("naiveag-mstopk", testbed, density=0.001)
        assert exact.selection_and_communication(d) == (
            exact_topk_gpu_time(d), exact.time_model(d).total
        )
        assert streaming.selection_and_communication(d) == (
            mstopk_gpu_time(d), streaming.time_model(d).total
        )


class TestIoModel:
    def test_cached_beats_naive(self):
        naive = io_visible_time(96, 256, 0.058, cached=False, workers=1)
        cached = io_visible_time(96, 256, 0.058, cached=True, workers=1)
        assert cached < naive / 10  # Fig. 9's ">10x" claim

    def test_workers_divide_decode(self):
        one = io_visible_time(224, 256, 0.2, cached=False, workers=1)
        eight = io_visible_time(224, 256, 0.2, cached=False, workers=8)
        assert eight < one / 3

    def test_text_pipeline_is_cheap(self):
        t = io_visible_time(0, 8, 0.25, cached=True, workers=1, text=True)
        assert t < 1e-3
