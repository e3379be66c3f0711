"""Double-buffered, CRC32-verified engine snapshots for ``repro serve``.

Snapshots bound recovery time: restart cost is *load newest good
snapshot + replay the journal tail*, not *replay everything since
genesis*.  The on-disk discipline is borrowed from the training
checkpoint format v3 (:mod:`repro.train.checkpoint`): an explicit
format version in the magic, CRC32 checksums verified **before** any
state is touched, a typed corrupt error
(:class:`SnapshotCorruptError` subclasses
:class:`~repro.train.checkpoint.CheckpointCorruptError`, so callers
that already handle corrupt checkpoints handle corrupt snapshots for
free), and double-buffered slots with fallback — exactly the
``rollback-a``/``rollback-b`` alternation the elastic trainer uses.

File layout (little-endian)::

    magic:   8 bytes  b"RPSNAP05"
    header:  u32 CRC32(meta || body) | u32 meta length | u64 body length
    meta:    canonical JSON (applied_seq, virtual now, counters, ...)
    body:    pickled engine state (one object graph, shared refs intact)

The store always writes into the slot **not** holding the newest good
snapshot, so a kill mid-write can only tear the *older* snapshot — the
newest good one survives by construction.  ``load()`` prefers the valid
slot with the highest ``applied_seq``, falls back to the other slot
when the first is corrupt, and returns ``None`` when neither is usable
(the caller then replays the journal from genesis).
"""

from __future__ import annotations

import os
import pathlib
import pickle
import struct
import zlib
from dataclasses import dataclass

from repro.serve.journal import canonical_json
from repro.train.checkpoint import CheckpointCorruptError
from repro.utils.eventlog import parse_json

#: Magic + format version; bump the trailing digits on layout changes.
SNAPSHOT_MAGIC = b"RPSNAP05"

_HEAD = struct.Struct("<IIQ")  # CRC32(meta||body), meta length, body length

#: The two slot file names, alternated between saves.
SLOT_NAMES = ("snap-a.bin", "snap-b.bin")


class SnapshotCorruptError(CheckpointCorruptError):
    """A snapshot file that fails its integrity checks."""


def write_snapshot(
    path: str | pathlib.Path,
    state: object,
    meta: dict,
    *,
    tear_after: int | float | None = None,
) -> dict:
    """Write one snapshot file; returns the meta actually written.

    ``tear_after`` (drill-only) persists just the first *n* bytes — or,
    as a float in (0, 1), that fraction of the blob — and stops: the
    exact artefact a kill mid-``write`` leaves in the slot, so recovery
    tests exercise the fallback path with real torn files.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    meta_bytes = canonical_json(meta).encode("utf-8")
    body = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    crc = zlib.crc32(body, zlib.crc32(meta_bytes))
    blob = SNAPSHOT_MAGIC + _HEAD.pack(crc, len(meta_bytes), len(body)) + meta_bytes + body
    if tear_after is not None:
        if isinstance(tear_after, float) and 0 < tear_after < 1:
            tear_after = int(len(blob) * tear_after)
        blob = blob[: max(1, min(int(tear_after), len(blob) - 1))]
    with open(path, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    return meta


def _read_verified(path: pathlib.Path) -> tuple[dict, memoryview]:
    """``(meta, pickled body)`` of a file that passes every integrity
    check, without unpickling; raises :class:`SnapshotCorruptError`."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise SnapshotCorruptError(f"snapshot {path} is unreadable: {exc}") from exc
    if not data.startswith(SNAPSHOT_MAGIC):
        raise SnapshotCorruptError(
            f"snapshot {path} has a bad or missing {SNAPSHOT_MAGIC!r} header"
        )
    head_end = len(SNAPSHOT_MAGIC) + _HEAD.size
    if len(data) < head_end:
        raise SnapshotCorruptError(f"snapshot {path} is truncated mid-header")
    crc, meta_len, body_len = _HEAD.unpack_from(data, len(SNAPSHOT_MAGIC))
    if len(data) != head_end + meta_len + body_len:
        raise SnapshotCorruptError(
            f"snapshot {path} is truncated: {len(data)} bytes, "
            f"expected {head_end + meta_len + body_len}"
        )
    meta_bytes = data[head_end : head_end + meta_len]
    body = memoryview(data)[head_end + meta_len :]
    if zlib.crc32(body, zlib.crc32(meta_bytes)) != crc:
        raise SnapshotCorruptError(f"snapshot {path} failed its CRC32 check")
    try:
        meta = parse_json(meta_bytes.decode("utf-8"))
    except ValueError as exc:
        raise SnapshotCorruptError(f"snapshot {path} failed to decode: {exc}") from exc
    return meta, body


def _unpickle(path: pathlib.Path, body: memoryview) -> object:
    try:
        return pickle.loads(body)
    except Exception as exc:  # a CRC-clean body this build cannot rebuild
        raise SnapshotCorruptError(f"snapshot {path} failed to decode: {exc}") from exc


@dataclass
class SnapshotLoad:
    """Result of :meth:`SnapshotStore.load`."""

    meta: dict
    state: object
    slot: str
    #: Slots that existed but failed verification before this one loaded.
    corrupt_slots: int = 0


class SnapshotStore:
    """The daemon's two snapshot slots under one state directory."""

    def __init__(self, state_dir: str | pathlib.Path) -> None:
        self.state_dir = pathlib.Path(state_dir)
        self.slots = tuple(self.state_dir / name for name in SLOT_NAMES)
        #: The stale slot, known without reading once this store has
        #: written the other one (``None``: scan the slots to find out).
        self._next: pathlib.Path | None = None

    def _slot_seq(self, path: pathlib.Path) -> int | None:
        """``applied_seq`` of a slot's snapshot, or ``None`` if unusable.

        CRC and meta only — the body is verified but never unpickled.
        """
        if not path.exists():
            return None
        try:
            meta, _ = _read_verified(path)
        except SnapshotCorruptError:
            return None
        return int(meta.get("applied_seq", 0))

    def target_slot(self) -> pathlib.Path:
        """The slot the next save must overwrite.

        Always the one *not* holding the newest good snapshot: a kill
        mid-write then tears only the stale slot, never the newest good
        state.  Missing or corrupt slots are overwritten first.
        """
        seqs = [self._slot_seq(path) for path in self.slots]
        if seqs[0] is None:
            return self.slots[0]
        if seqs[1] is None:
            return self.slots[1]
        return self.slots[0] if seqs[0] <= seqs[1] else self.slots[1]

    def save(
        self, state: object, meta: dict, *, tear_after: int | None = None
    ) -> pathlib.Path:
        path = self._next or self.target_slot()
        write_snapshot(path, state, meta, tear_after=tear_after)
        # The slot just written holds the newest good snapshot, so the
        # next save needs no scan — unless this write was torn.
        other = self.slots[1] if path == self.slots[0] else self.slots[0]
        self._next = other if tear_after is None else None
        return path

    def load(self) -> SnapshotLoad | None:
        """The newest verifiable snapshot, falling back across slots.

        ``corrupt_slots`` on the result counts slot files that exist but
        failed verification — e.g. the newest snapshot torn mid-write —
        so recovery can log that it *fell back* rather than silently
        loading older state.
        """
        good: list[tuple[int, pathlib.Path, dict, memoryview]] = []
        corrupt = 0
        for path in self.slots:
            if not path.exists():
                continue
            try:
                meta, body = _read_verified(path)
            except SnapshotCorruptError:
                corrupt += 1
                continue
            good.append((int(meta.get("applied_seq", 0)), path, meta, body))
        # Newest first; each file was read and verified once above, and
        # only the winner is unpickled — if that fails, fall through.
        for _, path, meta, body in sorted(good, key=lambda c: -c[0]):
            try:
                state = _unpickle(path, body)
            except SnapshotCorruptError:
                corrupt += 1
                continue
            return SnapshotLoad(
                meta=meta, state=state, slot=path.name, corrupt_slots=corrupt
            )
        return None


__all__ = [
    "SNAPSHOT_MAGIC",
    "SLOT_NAMES",
    "SnapshotCorruptError",
    "SnapshotLoad",
    "SnapshotStore",
    "write_snapshot",
]
