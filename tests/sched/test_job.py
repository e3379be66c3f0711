"""JobSpec validation, resolution helpers, and the elastic trace bridge."""

import pytest

from repro.elastic.events import JOIN, REVOKE
from repro.perf.iteration_model import SchemeKind
from repro.sched.job import JobRecord, JobSpec, scheme_kind_of


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
    def test_scheme_kind_mapping_covers_registry(self):
        from repro.api.registry import SCHEMES

        for name in SCHEMES.available():
            assert isinstance(scheme_kind_of(name), SchemeKind)

    def test_scheme_aliases_resolve(self):
        assert scheme_kind_of("hitopkcomm") is SchemeKind.MSTOPK_HIER
        assert scheme_kind_of("ring") is SchemeKind.DENSE_TREE
        assert scheme_kind_of("gtopk") is SchemeKind.TOPK_NAIVE

    def test_resolution_defaults(self):
        assert JobSpec(name="r", profile="resnet50").resolved_resolution() == 224
        assert JobSpec(name="t", profile="transformer").resolved_resolution() == 0
        assert (
            JobSpec(name="r2", profile="resnet50", resolution=96).resolved_resolution()
            == 96
        )

    def test_local_batch_defaults_to_profile(self):
        spec = JobSpec(name="r", profile="resnet50")
        assert spec.resolved_local_batch() == spec.model_profile().default_local_batch
        assert JobSpec(name="r", local_batch=32).resolved_local_batch() == 32


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
