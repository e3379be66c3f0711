"""Double-buffered snapshots: CRC verification, slots, torn-write fallback."""

import pickle
import zlib

import pytest

from repro.serve import snapshot as snapshot_module
from repro.serve.snapshot import (
    SLOT_NAMES,
    SnapshotCorruptError,
    SnapshotStore,
    write_snapshot,
)
from repro.train.checkpoint import CheckpointCorruptError


@pytest.fixture
def unpickles(monkeypatch):
    calls = []
    real = pickle.loads

    def loads(data):
        calls.append(len(data))
        return real(data)

    monkeypatch.setattr(snapshot_module.pickle, "loads", loads)
    return calls


class TestOneFile:
    def test_roundtrip_meta_and_state(self, tmp_path):
        state = {"records": {"j": [1, 2, 3]}, "now": 42.5}
        SnapshotStore(tmp_path).save(state, {"applied_seq": 7})
        loaded = SnapshotStore(tmp_path).load()
        assert loaded.meta == {"applied_seq": 7}
        assert loaded.state == state

    def test_shared_references_survive_pickling(self, tmp_path):
        shared = {"name": "job"}
        SnapshotStore(tmp_path).save({"a": shared, "b": shared}, {"applied_seq": 1})
        loaded = SnapshotStore(tmp_path).load().state
        assert loaded["a"] is loaded["b"]  # one object graph, not two copies

    def test_byte_flip_fails_crc_before_unpickling(self, tmp_path, unpickles):
        store = SnapshotStore(tmp_path)
        path = store.save({"x": 1}, {"applied_seq": 1})
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotCorruptError, match="CRC32"):
            snapshot_module._read_verified(path)
        assert store.load() is None
        assert unpickles == []

    def test_meta_nested_past_the_recursion_limit_fails_to_decode(self, tmp_path):
        meta = b"[" * 5_000 + b"]" * 5_000
        body = pickle.dumps({"x": 1})
        crc = zlib.crc32(body, zlib.crc32(meta))
        head = snapshot_module._HEAD.pack(crc, len(meta), len(body))
        path = tmp_path / "s.bin"
        path.write_bytes(snapshot_module.SNAPSHOT_MAGIC + head + meta + body)
        with pytest.raises(SnapshotCorruptError, match="failed to decode"):
            snapshot_module._read_verified(path)

    def test_truncation_mid_file_is_detected(self, tmp_path):
        path = tmp_path / "s.bin"
        write_snapshot(path, {"x": list(range(100))}, {"applied_seq": 1})
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(SnapshotCorruptError, match="truncated"):
            snapshot_module._read_verified(path)

    def test_tear_after_writes_a_real_torn_file(self, tmp_path):
        path = tmp_path / "s.bin"
        write_snapshot(path, {"x": 1}, {"applied_seq": 1}, tear_after=0.5)
        with pytest.raises(SnapshotCorruptError):
            snapshot_module._read_verified(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "s.bin"
        path.write_bytes(b"NOTSNAPS" + b"\x00" * 64)
        with pytest.raises(SnapshotCorruptError, match="header"):
            snapshot_module._read_verified(path)

    def test_corrupt_error_is_a_checkpoint_corrupt_error(self):
        # Callers that already handle corrupt training checkpoints get
        # corrupt snapshots for free.
        assert issubclass(SnapshotCorruptError, CheckpointCorruptError)


class TestStore:
    def test_saves_alternate_between_slots(self, tmp_path):
        store = SnapshotStore(tmp_path)
        first = store.save({"n": 1}, {"applied_seq": 1})
        second = store.save({"n": 2}, {"applied_seq": 2})
        third = store.save({"n": 3}, {"applied_seq": 3})
        assert first.name != second.name
        assert third.name == first.name  # overwrote the stale slot
        assert {first.name, second.name} == set(SLOT_NAMES)

    def test_load_prefers_newest_applied_seq(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save({"n": 1}, {"applied_seq": 1})
        store.save({"n": 2}, {"applied_seq": 2})
        loaded = store.load()
        assert loaded.state == {"n": 2}
        assert loaded.meta["applied_seq"] == 2
        assert loaded.corrupt_slots == 0

    def test_corrupt_newest_falls_back_to_previous_slot(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save({"n": 1}, {"applied_seq": 1})
        newest = store.save({"n": 2}, {"applied_seq": 2})
        # Truncate the newest snapshot mid-file — a torn write, not just
        # a byte flip.
        data = newest.read_bytes()
        newest.write_bytes(data[: len(data) // 2])
        loaded = store.load()
        assert loaded.state == {"n": 1}
        assert loaded.slot != newest.name
        assert loaded.corrupt_slots == 1  # the fallback is reported

    def test_both_slots_corrupt_returns_none(self, tmp_path):
        store = SnapshotStore(tmp_path)
        for seq in (1, 2):
            path = store.save({"n": seq}, {"applied_seq": seq})
            path.write_bytes(path.read_bytes()[:10])
        assert store.load() is None  # caller replays the journal from genesis

    def test_empty_store_returns_none(self, tmp_path):
        assert SnapshotStore(tmp_path).load() is None

    def test_target_slot_overwrites_corrupt_slot_first(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save({"n": 1}, {"applied_seq": 1})
        newest = store.save({"n": 2}, {"applied_seq": 2})
        stale = store.save({"n": 3}, {"applied_seq": 3})
        assert stale.name != newest.name
        # Corrupting the newest (seq 3) makes its slot the next target.
        stale.write_bytes(stale.read_bytes()[:10])
        assert store.target_slot() == stale


class Unloadable:
    """Pickles fine; raises when unpickled (a CRC-clean, unusable body)."""

    def __reduce__(self):
        return (_refuse, ())


def _refuse():
    raise RuntimeError("this build cannot rebuild that state")


class TestStoreReadsOnlyWhatItMust:
    @pytest.fixture
    def reads(self, monkeypatch):
        calls = []
        real = snapshot_module._read_verified

        def read_verified(path):
            calls.append(path.name)
            return real(path)

        monkeypatch.setattr(snapshot_module, "_read_verified", read_verified)
        return calls

    def test_choosing_the_target_slot_never_unpickles(self, tmp_path, unpickles):
        store = SnapshotStore(tmp_path)
        store.save({"n": 1}, {"applied_seq": 1})
        store.save({"n": 2}, {"applied_seq": 2})
        assert SnapshotStore(tmp_path).target_slot().name == SLOT_NAMES[0]
        assert unpickles == []

    def test_steady_state_save_reads_nothing(self, tmp_path, reads):
        store = SnapshotStore(tmp_path)
        first = store.save({"n": 1}, {"applied_seq": 1})  # scans: slots unknown
        scanned = len(reads)
        names = [store.save({"n": n}, {"applied_seq": n}).name for n in (2, 3, 4)]
        assert len(reads) == scanned
        assert names == [SLOT_NAMES[1], first.name, SLOT_NAMES[1]]

    def test_a_torn_save_makes_the_next_save_look_again(self, tmp_path, reads):
        store = SnapshotStore(tmp_path)
        store.save({"n": 1}, {"applied_seq": 1})
        torn = store.save({"n": 2}, {"applied_seq": 2}, tear_after=0.5)
        scanned = len(reads)
        # The torn slot is still the stale one; the good slot survives.
        assert store.save({"n": 3}, {"applied_seq": 3}) == torn
        assert len(reads) > scanned
        assert store.load().state == {"n": 3}

    def test_load_reads_each_slot_once_and_unpickles_only_the_winner(
        self, tmp_path, reads, unpickles
    ):
        store = SnapshotStore(tmp_path)
        store.save({"n": 1}, {"applied_seq": 1})
        store.save({"n": 2}, {"applied_seq": 2})
        reads.clear()
        assert store.load().state == {"n": 2}
        assert sorted(reads) == sorted(SLOT_NAMES)
        assert len(unpickles) == 1

    def test_crc_clean_but_unloadable_newest_falls_back(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save({"n": 1}, {"applied_seq": 1})
        store.save(Unloadable(), {"applied_seq": 2})
        loaded = store.load()
        assert loaded.state == {"n": 1}
        assert loaded.corrupt_slots == 1
