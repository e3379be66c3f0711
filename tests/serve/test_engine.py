"""The live engine: batch equivalence, admission, exactly-once apply."""

import pytest

from repro.api.config import SchedConfig, ServeConfig
from repro.api.facade import run_sched
from repro.serve.engine import QueueFullError, ServeEngine

CLUSTER = {"instance": "tencent", "num_nodes": 4, "gpus_per_node": 2}
JOBS = [
    {"name": "a", "profile": "resnet50", "scheme": "mstopk", "iterations": 200,
     "min_nodes": 1, "max_nodes": 3},
    {"name": "b", "profile": "vgg19", "scheme": "dense", "iterations": 100,
     "arrival_seconds": 15.0, "min_nodes": 1, "max_nodes": 2},
    {"name": "c", "profile": "resnet50", "scheme": "topk", "density": 0.005,
     "iterations": 150, "arrival_seconds": 40.0, "priority": 1,
     "min_nodes": 1, "max_nodes": 2},
]
FAULTS = {"events": [
    {"kind": "nic-degrade", "at": 20, "duration": 30, "scale": 0.5},
    {"kind": "node-crash", "at": 40, "duration": 60},
]}
BRAIN = {"name": "health-migrate", "interval": 30}


def serve_config(**extra) -> ServeConfig:
    return ServeConfig.from_dict(
        {"name": "unit", "seed": 11, "cluster": CLUSTER, "policy": "bin-pack",
         **extra}
    )


def engine_with(jobs, config=None) -> ServeEngine:
    engine = ServeEngine(config or serve_config())
    for i, job in enumerate(jobs):
        ack = engine.apply_op({"op": "submit", "id": i + 1, "job": job})
        assert ack["ok"], ack
    return engine


class TestBatchEquivalence:
    """Submit-all-then-drain must be *bit-identical* to batch run()."""

    def _batch(self, **extra):
        config = SchedConfig.from_dict(
            {"name": "unit", "seed": 11, "cluster": CLUSTER,
             "policies": ["bin-pack"], "jobs": JOBS, **extra}
        )
        return run_sched(config)["bin-pack"]

    def assert_identical(self, batch, live):
        assert [o.row() for o in batch.jobs] == [o.row() for o in live.jobs]
        assert batch.summary() == live.summary()
        assert batch.traces == live.traces

    def test_plain_drain_matches_batch(self):
        engine = engine_with(JOBS)
        engine.apply_op({"op": "drain", "id": 9})
        self.assert_identical(self._batch(), engine.report())

    def test_fault_and_brain_drain_matches_batch(self):
        engine = engine_with(
            JOBS, serve_config(faults=FAULTS, brain=BRAIN)
        )
        engine.apply_op({"op": "drain", "id": 9})
        batch = self._batch(faults=FAULTS, brain=BRAIN)
        live = engine.report()
        self.assert_identical(batch, live)
        # The digest-pinned logs agree entry for entry.
        assert batch.fault_log["digest"] == live.fault_log["digest"]
        assert batch.brain_log["digest"] == live.brain_log["digest"]

    def test_interleaved_ticks_are_deterministic(self):
        def run():
            engine = ServeEngine(serve_config(faults=FAULTS))
            for i, job in enumerate(JOBS):
                engine.apply_op({"op": "submit", "id": 2 * i + 1, "job": job})
                engine.apply_op({"op": "tick", "id": 2 * i + 2, "until": 30.0 * (i + 1)})
            engine.apply_op({"op": "drain", "id": 99})
            return engine
        one, two = run(), run()
        assert one.state_digest() == two.state_digest()
        assert one.payload() == two.payload()


class TestOneCore:
    """The engine steps the batch path's own event loop, drivers included."""

    def test_engine_drives_a_sched_run_built_by_the_scheduler(self):
        from repro.sched import SchedRun

        engine = engine_with(JOBS, serve_config(faults=FAULTS, brain=BRAIN))
        assert isinstance(engine.core, SchedRun)
        assert engine.core.scheduler is engine.scheduler
        assert engine.records is engine.core.records and engine.now == 0.0
        engine.apply_op({"op": "tick", "id": 8, "until": 35.0})
        assert engine.now == engine.core.now == 35.0

    def test_brain_sees_the_plan_like_batch_does(self):
        # The serve scheduler used to be built without the fault plan, so
        # its brain priced risk with the default health knobs.
        from repro.brain.signals import build_observation

        faults = {**FAULTS, "checkpoint_iterations": 7, "quarantine_threshold": 2.5}
        engine = engine_with(JOBS, serve_config(faults=faults, brain=BRAIN))
        assert engine.core.state.health.policy.checkpoint_iterations == 7
        assert build_observation(engine.core).quarantine_threshold == 2.5


class TestAdmission:
    def test_unknown_job_key_rejected(self):
        engine = ServeEngine(serve_config())
        ack = engine.apply_op(
            {"op": "submit", "id": 1, "job": {"name": "x", "iterationz": 5}}
        )
        assert not ack["ok"]
        assert "iterationz" in ack["error"] and "accepted keys" in ack["error"]

    def test_duplicate_job_name_rejected(self):
        engine = engine_with([{"name": "a"}])
        ack = engine.apply_op({"op": "submit", "id": 2, "job": {"name": "a"}})
        assert not ack["ok"] and "already submitted" in ack["error"]

    def test_oversized_job_rejected(self):
        engine = ServeEngine(serve_config())
        ack = engine.apply_op(
            {"op": "submit", "id": 1, "job": {"name": "x", "min_nodes": 9, "max_nodes": 9}}
        )
        assert not ack["ok"] and "needs 9 nodes" in ack["error"]

    def test_queue_full_sheds_with_structured_error(self):
        engine = ServeEngine(serve_config(queue_limit=2))
        for i in range(2):
            assert engine.apply_op(
                {"op": "submit", "id": i + 1, "job": {"name": f"j{i}"}}
            )["ok"]
        ack = engine.apply_op({"op": "submit", "id": 3, "job": {"name": "j2"}})
        assert not ack["ok"]
        assert "queue full" in ack["error"] and "queue_limit=2" in ack["error"]
        assert engine.rejected == 1
        # The structured detail is a typed error for API users.
        with pytest.raises(QueueFullError) as err:
            engine._submit({"name": "j3"})
        assert err.value.detail == {"job": "j3", "backlog": 2, "queue_limit": 2}

    def test_rejections_advance_the_id_watermark(self):
        engine = ServeEngine(serve_config())
        ack = engine.apply_op({"op": "submit", "id": 1, "job": {"iterationz": 1}})
        assert not ack["ok"]
        assert engine.last_op_id == 1  # a resend of id 1 deduplicates
        assert engine.apply_op({"op": "submit", "id": 1, "job": {}})["duplicate"]

    def test_late_arrival_clamped_to_the_clock(self):
        engine = ServeEngine(serve_config())
        engine.apply_op({"op": "tick", "id": 1, "until": 100.0})
        ack = engine.apply_op(
            {"op": "submit", "id": 2,
             "job": {"name": "x", "arrival_seconds": 10.0}}
        )
        assert ack["ok"] and ack["arrival"] == 100.0  # time never rewinds


class TestOps:
    def test_duplicate_id_is_acked_without_applying(self):
        engine = engine_with([{"name": "a"}])
        before = engine.state_digest()
        ack = engine.apply_op({"op": "submit", "id": 1, "job": {"name": "zz"}})
        assert ack == {"ok": True, "id": 1, "duplicate": True}
        assert engine.state_digest() == before
        assert "zz" not in engine.records

    def test_unknown_op_kind_rejected(self):
        engine = ServeEngine(serve_config())
        ack = engine.apply_op({"op": "reboot", "id": 1})
        assert not ack["ok"] and "unknown op" in ack["error"]

    def test_tick_backwards_rejected(self):
        engine = ServeEngine(serve_config())
        engine.apply_op({"op": "tick", "id": 1, "until": 100.0})
        ack = engine.apply_op({"op": "tick", "id": 2, "until": 50.0})
        assert not ack["ok"] and "behind the virtual clock" in ack["error"]

    def test_tick_default_advances_tick_seconds(self):
        engine = ServeEngine(serve_config(tick_seconds=123.0))
        assert engine.apply_op({"op": "tick", "id": 1})["now"] == 123.0

    def test_empty_engine_reports_cleanly(self):
        engine = ServeEngine(serve_config())
        engine.apply_op({"op": "tick", "id": 1, "until": 500.0})
        payload = engine.payload()
        assert payload["rows"] == []
        assert payload["meta"]["serve"]["submitted"] == 0

    def test_series_tracks_goodput_per_tick(self):
        engine = engine_with(JOBS)
        engine.apply_op({"op": "tick", "id": 8, "until": 60.0})
        engine.apply_op({"op": "drain", "id": 9})
        series = engine.stats()["series"]
        assert len(series) == 2
        times = [row[0] for row in series]
        done = [row[1] for row in series]
        assert times == sorted(times)
        assert done[-1] == len(JOBS)


class TestSnapshotState:
    def test_roundtrip_preserves_digest_and_future(self):
        config = serve_config(faults=FAULTS, brain=BRAIN)
        engine = engine_with(JOBS, config)
        engine.apply_op({"op": "tick", "id": 8, "until": 35.0})
        state = engine.snapshot_state()
        import pickle

        clone = ServeEngine.from_snapshot_state(
            config, pickle.loads(pickle.dumps(state))
        )
        assert clone.state_digest() == engine.state_digest()
        # The restored engine's *future* is identical too.
        engine.apply_op({"op": "drain", "id": 9})
        clone.apply_op({"op": "drain", "id": 9})
        assert clone.payload() == engine.payload()

    def test_a_restore_drops_the_core_memos_and_stays_on_the_same_chain(self):
        import pickle

        config = serve_config(faults=FAULTS, brain=BRAIN)
        engine = engine_with(JOBS, config)
        engine.apply_op({"op": "tick", "id": 8, "until": 35.0})
        assert engine.core.prices and engine.core.state.version > 0
        # The core's memos are not in the pickle (the slot layout is the
        # one builds without them wrote; tests/sched/test_core.py pins
        # that), so the restored engine starts without any ...
        clone = ServeEngine.from_snapshot_state(
            config, pickle.loads(pickle.dumps(engine.snapshot_state()))
        )
        assert not clone.core.prices and clone.core.state.version == 0
        # ... and still acks, links and digests exactly as the live one.
        for op_id, until in enumerate((36.5, 41.0, 47.0, 80.0, 140.0), start=9):
            op = {"op": "tick", "id": op_id, "until": until}
            assert clone.apply_op(op) == engine.apply_op(op)
            assert clone.witness == engine.witness
        assert clone.state_digest() == engine.state_digest()

    def test_restore_rejects_tampered_state(self):
        engine = engine_with(JOBS)
        state = engine.snapshot_state()
        state["submitted"] += 1
        with pytest.raises(RuntimeError, match="digest mismatch"):
            ServeEngine.from_snapshot_state(engine.config, state)
