"""FaultLog: structured, wall-clock-free, canonically serialised."""

import numpy as np
import pytest

from repro.brain.log import BrainLog
from repro.faults.log import PHASES, FaultLog
from repro.utils.eventlog import EventLog, digest16


def _sample_log() -> FaultLog:
    log = FaultLog()
    log.append("inject", t=10.0, kind="node-crash", fault_id=0, target="run",
               nodes=[2])
    log.append("detect", t=10.0, kind="node-crash", fault_id=0, target="run")
    log.append("recover", t=14.5, kind="node-crash", fault_id=0, target="run",
               latency_s=4.5)
    return log


class TestAppend:
    def test_seq_and_rounding(self):
        log = _sample_log()
        entries = log.to_dicts()
        assert [e["seq"] for e in entries] == [0, 1, 2]
        assert entries[0]["detail"] == {"nodes": [2]}
        assert "detail" not in entries[1]

    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError, match="unknown log phase"):
            FaultLog().append("explode", t=0, kind="x", fault_id=0, target="run")

    def test_phases_cover_lifecycle(self):
        assert PHASES == (
            "inject", "detect", "recover", "repair", "absorb",
            "quarantine", "probe",
        )

    def test_numpy_scalars_coerced(self):
        log = FaultLog()
        log.append("inject", t=np.float64(1.5), kind="x", fault_id=0,
                   target="run", node=np.int64(3))
        entry = log.to_dicts()[0]
        assert entry["detail"]["node"] == 3
        assert isinstance(entry["detail"]["node"], int)

    def test_non_scalar_detail_fails_loudly(self):
        with pytest.raises(TypeError, match="JSON scalars"):
            FaultLog().append("inject", t=0, kind="x", fault_id=0,
                              target="run", payload=object())

    def test_to_dicts_is_a_copy(self):
        log = _sample_log()
        log.to_dicts()[0]["detail"]["nodes"] = "mutated"
        assert log.to_dicts()[0]["detail"] == {"nodes": [2]}


class TestOneImplementation:
    def test_fault_and_brain_logs_share_append_and_digest(self):
        assert FaultLog.append is BrainLog.append is EventLog.append
        assert FaultLog.digest is BrainLog.digest is EventLog.digest

    def test_key_fields_are_what_differs(self):
        brain = BrainLog()
        entry = brain.append("migrate", t=3, job=7, src=1, dst=2)
        assert entry == {"seq": 0, "t": 3.0, "phase": "migrate", "job": "7",
                         "detail": {"dst": 2, "src": 1}}
        with pytest.raises(ValueError, match="unknown log phase 'inject'"):
            brain.append("inject", t=0, job="j")
        assert brain.digest() == digest16([entry])


class TestDigest:
    def test_digest_stable_across_instances(self):
        assert _sample_log().digest() == _sample_log().digest()
        assert len(_sample_log().digest()) == 16

    def test_digest_changes_with_content(self):
        log = _sample_log()
        other = _sample_log()
        other.append("absorb", t=20.0, kind="straggler", fault_id=1, target="run")
        assert log.digest() != other.digest()

    def test_digest_is_incremental_and_survives_pickling(self):
        import pickle

        log = FaultLog()
        assert log.digest() == digest16([])
        for _ in range(2):  # digest, append, digest again; then unpickled
            log.append("absorb", t=1.0, kind="straggler", fault_id=1, target="run")
            assert log.digest() == digest16(log.to_dicts())
            log.append("repair", t=2.0, kind="straggler", fault_id=1, target="run")
            assert log.digest() == digest16(log.to_dicts())
            log = pickle.loads(pickle.dumps(log))
        assert len(log) == 4 and log.digest() == digest16(log.to_dicts())

    def test_tail_is_what_was_appended_since(self):
        log = _sample_log()
        mark = len(log)
        assert log.tail(mark) == []
        entry = log.append("absorb", t=20.0, kind="straggler", fault_id=1, target="run")
        assert log.tail(mark) == [entry]

    def test_canonical_json_is_compact_and_sorted(self):
        text = _sample_log().to_json()
        assert ": " not in text and ", " not in text
        entry = text[text.index("{"):text.index("}") + 1]
        keys = [k.split('"')[1] for k in entry.split(",")]
        assert keys == sorted(keys)


class TestScoring:
    def test_latencies_inject_to_recover(self):
        assert _sample_log().latencies() == {0: 4.5}
        assert _sample_log().mean_latency() == 4.5

    def test_mean_latency_none_when_nothing_recovered(self):
        log = FaultLog()
        log.append("inject", t=1.0, kind="x", fault_id=0, target="run")
        assert log.mean_latency() is None
