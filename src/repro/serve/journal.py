"""CRC-framed write-ahead journal for the always-on scheduler daemon.

The journal is the daemon's source of truth: every *input* event
(submission, tick, drain, snapshot marker, stop) is appended — length-
and CRC32-framed, flushed and fsynced — **before** it is applied to the
live :class:`~repro.serve.engine.ServeEngine`, and only then
acknowledged to the client.  Replaying the journal therefore
reconstructs the exact engine state: the engine is deterministic in its
inputs (the whole repo's virtual-clock discipline), so the journal of
inputs *is* the state.

Only input frames pay the ``fsync``.  *Audit* frames (ack + witness,
verified on replay but never needed to rebuild state) are appended with
``durable=False``: written and flushed to the OS — so they survive a
``kill -9`` — and made durable by the next input frame's ``fsync``.  A
power loss can therefore cost the newest audit, never an acknowledged
input.

Frame layout (all little-endian)::

    header:  8 bytes  b"RPJRNL01" (magic + format version)
    frame:   u32 payload length | u32 CRC32(payload) | payload bytes
    payload: canonical JSON (sorted keys, compact separators)

A process killed mid-append leaves a *torn tail*: a partial or
CRC-mismatching final frame.  That is the only corruption a crash can
produce (frames are append-only and never rewritten), and recovery
handles it by truncating the journal back to the last good frame —
:func:`repair_journal` — and logging the dropped bytes as a recovery
step.  A corrupt frame *before* the last good one is not a crash
artefact but real damage, and :func:`scan_journal` reports it the same
way: the scan stops at the first bad frame, so replay never applies
records that follow a hole.
"""

from __future__ import annotations

import json
import os
import pathlib
import struct
import zlib
from dataclasses import dataclass, field

from repro.utils.eventlog import canonical_json, parse_json

#: Magic + format version; bump the trailing digits on layout changes.
JOURNAL_MAGIC = b"RPJRNL01"

_FRAME_HEAD = struct.Struct("<II")  # payload length, CRC32(payload)

#: Refuse absurd frame lengths so a corrupt length field cannot make the
#: scanner allocate gigabytes: no legitimate daemon record gets close.
MAX_FRAME_BYTES = 16 * 1024 * 1024


class JournalError(RuntimeError):
    """A journal file that cannot be opened or appended to."""


def encode_frame(record: dict) -> bytes:
    """One CRC-framed journal frame for ``record``.

    A record nested too deep to encode is a ``ValueError``: an op can
    decode a few levels under the recursion limit and still not encode
    one call deeper, and the daemon rejects such an op rather than die.
    """
    try:
        payload = canonical_json(record).encode("utf-8")
    except RecursionError:
        raise ValueError("op nested too deeply to journal") from None
    return _FRAME_HEAD.pack(len(payload), zlib.crc32(payload)) + payload


@dataclass
class JournalScan:
    """What :func:`scan_journal` found on disk."""

    path: pathlib.Path
    #: Records decoded from good frames, in append order.
    records: list = field(default_factory=list)
    #: Byte offset just past the last good frame (header-only = 8).
    good_bytes: int = 0
    #: Trailing bytes past ``good_bytes`` (torn/corrupt tail; 0 = clean).
    torn_bytes: int = 0

    @property
    def torn(self) -> bool:
        return self.torn_bytes > 0

    @property
    def last_seq(self) -> int:
        """Highest ``seq`` among the good records (0 = empty journal)."""
        return max((r.get("seq", 0) for r in self.records), default=0)


class Journal:
    """Append-only CRC-framed record log with fsync-before-ack.

    ``append`` writes the full frame, flushes and fsyncs before
    returning — the WAL contract: once the caller sees the new offset,
    the record survives any subsequent kill.  ``durable=False`` stops
    at the flush (process-kill-safe; the next durable append's fsync
    covers it) for records recovery can do without.  ``append_torn``
    exists for the recovery drills only: it persists a deliberate
    *partial* frame (exactly what a kill mid-``write`` leaves behind) so
    the torn-tail repair path is exercised by real bytes, not a
    simulation of them.
    """

    def __init__(self, path: str | pathlib.Path, *, sync: bool = True) -> None:
        self.path = pathlib.Path(path)
        self.sync = sync
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        if fresh:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "ab")
        if fresh:
            self._file.write(JOURNAL_MAGIC)
            self._flush()
        elif self.path.stat().st_size < len(JOURNAL_MAGIC):
            raise JournalError(f"journal {self.path} is shorter than its header")

    def _flush(self, durable: bool = True) -> None:
        self._file.flush()
        if durable and self.sync:
            os.fsync(self._file.fileno())

    def append(self, record: dict, *, durable: bool = True) -> int:
        """Append one record (fsynced unless ``durable=False``); returns
        the new end offset."""
        self._file.write(encode_frame(record))
        self._flush(durable)
        return self._file.tell()

    def append_torn(self, record: dict) -> int:
        """Persist the *front half* of a frame (drill-only torn tail)."""
        frame = encode_frame(record)
        self._file.write(frame[: max(1, len(frame) // 2)])
        self._flush()
        return self._file.tell()

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def scan_journal(path: str | pathlib.Path) -> JournalScan:
    """Read every good frame; stop (and measure the tail) at the first bad one."""
    path = pathlib.Path(path)
    data = path.read_bytes()
    if len(data) < len(JOURNAL_MAGIC) or not data.startswith(JOURNAL_MAGIC):
        raise JournalError(
            f"{path} is not a journal (bad or missing {JOURNAL_MAGIC!r} header)"
        )
    scan = JournalScan(path=path, good_bytes=len(JOURNAL_MAGIC))
    offset = len(JOURNAL_MAGIC)
    while offset < len(data):
        if offset + _FRAME_HEAD.size > len(data):
            break  # torn mid-header
        length, crc = _FRAME_HEAD.unpack_from(data, offset)
        if length > MAX_FRAME_BYTES:
            break  # corrupt length field
        start = offset + _FRAME_HEAD.size
        end = start + length
        if end > len(data):
            break  # torn mid-payload
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            break  # bit rot or torn rewrite
        try:
            record = parse_json(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            break
        scan.records.append(record)
        offset = end
        scan.good_bytes = offset
    scan.torn_bytes = len(data) - scan.good_bytes
    return scan


def repair_journal(path: str | pathlib.Path) -> JournalScan:
    """Scan and, if the tail is torn, truncate back to the last good frame.

    Returns the scan (``torn_bytes`` reports what was dropped).  After
    repair the file ends exactly at ``good_bytes``, so a reopened
    :class:`Journal` appends cleanly where the good history ends.
    """
    scan = scan_journal(path)
    if scan.torn:
        with open(scan.path, "r+b") as handle:
            handle.truncate(scan.good_bytes)
            handle.flush()
            os.fsync(handle.fileno())
    return scan


__all__ = [
    "JOURNAL_MAGIC",
    "MAX_FRAME_BYTES",
    "JournalError",
    "JournalScan",
    "Journal",
    "canonical_json",
    "encode_frame",
    "scan_journal",
    "repair_journal",
]
