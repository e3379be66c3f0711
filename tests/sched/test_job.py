"""JobSpec validation, resolution helpers, and the elastic trace bridge."""

import pytest

from repro.api.registry import SCHEMES, register_scheme
from repro.comm.base import CommScheme
from repro.comm.breakdown import TimeBreakdown
from repro.elastic.events import JOIN, REVOKE
from repro.sched import MultiTenantScheduler
from repro.sched.job import JobRecord, JobSpec


class TestJobSpecValidation:
    def test_defaults_are_valid(self):
        spec = JobSpec(name="j")
        assert spec.profile == "resnet50"
        assert spec.preference == "spot"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"iterations": 0},
            {"density": 0.0},
            {"density": 1.5},
            {"preference": "free"},
            {"min_nodes": 0},
            {"min_nodes": 3, "max_nodes": 2},
            {"gpus_per_node": 0},
            {"arrival_seconds": -1.0},
            {"deadline_seconds": 0.0},
            {"local_batch": 0},
            {"arrival_seconds": float("nan")},
            {"arrival_seconds": float("inf")},
            {"deadline_seconds": float("nan")},
            {"deadline_seconds": float("inf")},
        ],
    )
    def test_bad_values_raise(self, kwargs):
        with pytest.raises(ValueError):
            JobSpec(**{"name": "j", **kwargs})

    def test_unknown_profile_raises_at_construction(self):
        with pytest.raises(KeyError, match="resnet50"):
            JobSpec(name="j", profile="alexnet")

    def test_unknown_scheme_raises_at_construction(self):
        with pytest.raises(KeyError, match="warpdrive"):
            JobSpec(name="j", scheme="warpdrive")


class TestResolution:
    def test_every_scheme_name_and_alias_keys_canonical(self):
        for name in SCHEMES.available():
            for alias in (name, *SCHEMES.aliases_of(name)):
                spec = JobSpec(name="j", scheme=alias)
                assert spec.workload_key(8)[1] == name

    def test_resolution_defaults(self):
        assert JobSpec(name="r", profile="resnet50").resolved_resolution() == 224
        assert JobSpec(name="t", profile="transformer").resolved_resolution() == 0
        assert (
            JobSpec(name="r2", profile="resnet50", resolution=96).resolved_resolution()
            == 96
        )

    @pytest.mark.parametrize(
        "profile, resolution", [("resnet50", 0), ("resnet50", 1), ("resnet50", 256), ("vgg19", 96)]
    )
    def test_an_uncalibrated_resolution_is_one_value_error_line(self, profile, resolution):
        # Resolution 0 on ResNet-50 used to be priced at its largest
        # calibration (288 px): a JCT of 19.2 s against 11.6 s at 224.
        with pytest.raises(ValueError) as err:
            JobSpec(name="j", profile=profile, resolution=resolution)
        rates = JobSpec(name="j", profile=profile).model_profile().resolution_throughput
        assert str(err.value) == f"resolution {resolution}: {profile} is calibrated at {sorted(rates)} only"

    def test_every_calibrated_resolution_is_accepted(self):
        for profile in ("resnet50", "vgg19", "transformer"):
            for resolution in JobSpec(name="j", profile=profile).model_profile().resolution_throughput:
                spec = JobSpec(name="j", profile=profile, resolution=resolution)
                assert spec.resolved_resolution() == resolution

    def test_local_batch_defaults_to_profile(self):
        spec = JobSpec(name="r", profile="resnet50")
        assert spec.resolved_local_batch() == spec.model_profile().default_local_batch
        assert JobSpec(name="r", local_batch=32).resolved_local_batch() == 32


class _FlatRate(CommScheme):
    """A sparse scheme whose price is a fixed multiple of its density."""

    dense = False
    selection_step = "select"

    def __init__(self, network, *, density):
        super().__init__(network)
        self.density = density

    def aggregate(self, worker_grads, *, rng=None):
        raise NotImplementedError

    def time_model(self, d):
        return TimeBreakdown({"select": 2.0 * self.density, "wire": 30.0 * self.density})


@pytest.fixture
def flat_rate():
    name = "test-flat-rate"
    register_scheme(name)(lambda network, *, density, **_: _FlatRate(network, density=density))
    yield name
    SCHEMES._entries.pop(name, None)


class TestPricing:
    def test_a_newly_registered_scheme_is_priced_by_its_own_model(self, flat_rate):
        # Every term but selection and communication is density-free, so
        # two densities differ by exactly the scheme's own price gap.
        scheduler = MultiTenantScheduler(num_nodes=2, gpus_per_node=8)

        def seconds(density):
            spec = JobSpec(name="j", scheme=flat_rate, density=density)
            return scheduler.iteration_seconds(spec, nodes=2)

        assert seconds(0.2) - seconds(0.1) == pytest.approx(0.1 * (2.0 + 30.0))


class TestTraceBridge:
    def test_waypoints_become_churn_events(self):
        record = JobRecord(spec=JobSpec(name="j"))
        record.waypoints = [(0, 3), (40, 1), (90, 2)]
        trace = record.to_trace_schedule()
        kinds = [(e.iteration, e.kind, e.warned) for e in trace.events]
        assert kinds == [
            (40, REVOKE, True),
            (40, REVOKE, True),
            (90, JOIN, False),
        ]

    def test_unplaced_job_has_no_trace(self):
        record = JobRecord(spec=JobSpec(name="j"))
        with pytest.raises(ValueError, match="never placed"):
            record.to_trace_schedule()

    def test_from_deltas_rejects_bad_waypoints(self):
        from repro.elastic.events import TraceSchedule

        with pytest.raises(ValueError):
            TraceSchedule.from_deltas([])
        with pytest.raises(ValueError):
            TraceSchedule.from_deltas([(0, 0)])
        with pytest.raises(ValueError):
            TraceSchedule.from_deltas([(10, 2), (5, 1)])


class TestIdentityAndPickling:
    def test_records_compare_by_identity(self):
        # running.remove(record) must take out *that* record, and must
        # not build two 14-field tuples per element to find it.
        first, twin = (JobRecord(spec=JobSpec(name="j")) for _ in range(2))
        assert first != twin and first == first
        running = [first, twin]
        running.remove(twin)
        assert running[0] is first

    @pytest.mark.parametrize(
        "make", [lambda: JobSpec(name="j", iterations=77), lambda: JobRecord(spec=JobSpec(name="j"))]
    )
    def test_slotted_classes_pickle_as_the_plain_field_dict(self, make):
        import dataclasses
        import pickle

        obj = make()
        assert not hasattr(obj, "__dict__")
        fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        # The state a ``__dict__`` instance pickles with — what serve
        # snapshot slots written before these classes had slots hold.
        assert obj.__getstate__() == fields
        clone = pickle.loads(pickle.dumps(obj))
        assert {f.name: getattr(clone, f.name) for f in dataclasses.fields(obj)} == fields
        blank = type(obj).__new__(type(obj))
        blank.__setstate__(fields)
        assert blank.__getstate__() == fields
