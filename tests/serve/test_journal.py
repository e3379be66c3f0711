"""The write-ahead journal: framing, torn tails, repair."""

import json
import struct
import zlib

import pytest

from repro.serve import journal as journal_module
from repro.serve.journal import (
    JOURNAL_MAGIC,
    MAX_FRAME_BYTES,
    Journal,
    JournalError,
    canonical_json,
    encode_frame,
    repair_journal,
    scan_journal,
)


class TestFraming:
    def test_roundtrip_records_in_order(self, tmp_path):
        path = tmp_path / "j.bin"
        records = [{"kind": "input", "seq": i, "op": {"op": "tick"}} for i in range(1, 6)]
        with Journal(path) as journal:
            for record in records:
                journal.append(record)
        scan = scan_journal(path)
        assert scan.records == records
        assert not scan.torn
        assert scan.last_seq == 5
        assert scan.good_bytes == path.stat().st_size

    def test_fresh_journal_writes_magic_header(self, tmp_path):
        path = tmp_path / "j.bin"
        Journal(path).close()
        assert path.read_bytes() == JOURNAL_MAGIC
        assert scan_journal(path).records == []

    def test_canonical_json_is_sorted_and_compact(self):
        blob = canonical_json({"b": 1, "a": [1, 2]})
        assert blob == '{"a":[1,2],"b":1}'

    def test_reopen_appends_after_existing_frames(self, tmp_path):
        path = tmp_path / "j.bin"
        with Journal(path) as journal:
            journal.append({"seq": 1})
        with Journal(path) as journal:
            journal.append({"seq": 2})
        assert [r["seq"] for r in scan_journal(path).records] == [1, 2]

    def test_non_durable_append_skips_the_fsync_not_the_flush(
        self, tmp_path, monkeypatch
    ):
        import os

        synced = []
        real = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd), real(fd)))
        path = tmp_path / "j.bin"
        with Journal(path) as journal:
            synced.clear()
            journal.append({"seq": 1})
            assert len(synced) == 1
            journal.append({"seq": 2}, durable=False)
            assert len(synced) == 1
            # Flushed to the OS: another reader (or this process's
            # successor after a kill -9) sees the whole frame already.
            assert [r["seq"] for r in scan_journal(path).records] == [1, 2]

    def test_not_a_journal_raises(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAJRNL" + b"x" * 32)
        with pytest.raises(JournalError, match="bad or missing"):
            scan_journal(path)


class TestTornTails:
    def _journal_with(self, tmp_path, n=3):
        path = tmp_path / "j.bin"
        with Journal(path) as journal:
            for i in range(1, n + 1):
                journal.append({"kind": "input", "seq": i})
        return path

    def test_append_torn_leaves_partial_final_frame(self, tmp_path):
        path = tmp_path / "j.bin"
        with Journal(path) as journal:
            journal.append({"seq": 1})
            journal.append_torn({"seq": 2})
        scan = scan_journal(path)
        assert [r["seq"] for r in scan.records] == [1]
        assert scan.torn and scan.torn_bytes > 0

    def test_truncation_mid_header_drops_only_the_tail(self, tmp_path):
        path = self._journal_with(tmp_path)
        good = scan_journal(path).good_bytes
        path.write_bytes(path.read_bytes() + b"\x07\x00")  # 2 stray bytes
        scan = scan_journal(path)
        assert scan.good_bytes == good and scan.torn_bytes == 2
        assert [r["seq"] for r in scan.records] == [1, 2, 3]

    def test_a_one_byte_tail_is_torn_and_repaired(self, tmp_path):
        path = self._journal_with(tmp_path)
        good = scan_journal(path).good_bytes
        path.write_bytes(path.read_bytes() + b"\x07")  # 1 stray byte
        scan = repair_journal(path)
        assert scan.torn and scan.good_bytes == good and scan.torn_bytes == 1
        assert path.stat().st_size == good
        assert [r["seq"] for r in scan_journal(path).records] == [1, 2, 3]

    def test_truncation_mid_payload_drops_only_the_tail(self, tmp_path):
        path = self._journal_with(tmp_path, n=2)
        data = path.read_bytes()
        path.write_bytes(data[:-3])  # kill mid-write of the last frame
        scan = scan_journal(path)
        assert [r["seq"] for r in scan.records] == [1]
        assert scan.torn

    def test_crc_mismatch_stops_the_scan(self, tmp_path):
        path = self._journal_with(tmp_path, n=3)
        data = bytearray(path.read_bytes())
        data[-2] ^= 0xFF  # flip a payload byte of the last frame
        path.write_bytes(bytes(data))
        scan = scan_journal(path)
        assert [r["seq"] for r in scan.records] == [1, 2]
        assert scan.torn

    def test_absurd_length_field_stops_the_scan(self, tmp_path):
        path = self._journal_with(tmp_path, n=1)
        bad_head = struct.pack("<II", MAX_FRAME_BYTES + 1, 0)
        path.write_bytes(path.read_bytes() + bad_head + b"zzz")
        scan = scan_journal(path)
        assert [r["seq"] for r in scan.records] == [1]
        assert scan.torn

    def test_a_frame_nested_past_the_recursion_limit_stops_the_scan(self, tmp_path):
        # CRC-valid, so only the decode can reject it, as it rejects any
        # other malformed payload.
        path = self._journal_with(tmp_path, n=1)
        payload = b"[" * 5_000 + b"]" * 5_000
        frame = struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
        path.write_bytes(path.read_bytes() + frame)
        scan = repair_journal(path)
        assert [r["seq"] for r in scan.records] == [1]
        assert scan.torn_bytes == len(frame)

    def test_a_frame_of_exactly_the_length_bound_is_read(self, tmp_path, monkeypatch):
        path = self._journal_with(tmp_path, n=1)
        at_bound = {"seq": 2, "pad": "x" * 40}
        over_bound = encode_frame({"seq": 3, "pad": "x" * 41})  # one payload byte more
        bound = len(canonical_json(at_bound).encode())
        monkeypatch.setattr(journal_module, "MAX_FRAME_BYTES", bound)
        path.write_bytes(path.read_bytes() + encode_frame(at_bound) + over_bound)
        scan = scan_journal(path)
        assert [r["seq"] for r in scan.records] == [1, 2]
        assert scan.torn_bytes == len(over_bound)

    def test_repair_truncates_back_to_last_good_frame(self, tmp_path):
        path = tmp_path / "j.bin"
        with Journal(path) as journal:
            journal.append({"seq": 1})
            journal.append_torn({"seq": 2})
        scan = repair_journal(path)
        assert scan.torn_bytes > 0  # reported what was dropped
        assert path.stat().st_size == scan.good_bytes
        # After repair the journal appends cleanly where history ends.
        with Journal(path) as journal:
            journal.append({"seq": 2})
        assert [r["seq"] for r in scan_journal(path).records] == [1, 2]

    def test_repair_is_a_noop_on_clean_journals(self, tmp_path):
        path = self._journal_with(tmp_path)
        before = path.read_bytes()
        scan = repair_journal(path)
        assert not scan.torn
        assert path.read_bytes() == before

    def test_frame_encoding_is_length_then_crc(self):
        frame = encode_frame({"a": 1})
        payload = canonical_json({"a": 1}).encode()
        length, crc = struct.unpack_from("<II", frame)
        assert length == len(payload)
        assert frame[8:] == payload
        assert json.loads(payload) == {"a": 1}
