"""Canonical JSON, its short digest, and the append-only log built on them.

Everything this repo pins by digest — fault logs, brain decision logs,
journal frames, the serve engine's state witnesses — is hashed over *one*
spelling of JSON: sorted keys, no whitespace.  :func:`canonical_json`
is that spelling, :func:`digest16` the sha256-16 over it, and
:class:`EventLog` the wall-clock-free structured log both the fault and
the brain subsystem specialise with their own phases and key fields.
:func:`parse_json` reads the JSON that comes from outside the process
(config files, traces, op scripts, socket lines, journal frames and
snapshot meta).
"""

from __future__ import annotations

import hashlib
import json


def canonical_json(record) -> str:
    """The one spelling a record ever has (digest- and CRC-stable)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def parse_json(text: str):
    """``json.loads`` for text from outside the process.

    Input nested past the interpreter's recursion limit makes
    ``json.loads`` raise ``RecursionError``; here it raises the
    :class:`json.JSONDecodeError` (a ``ValueError``) that any other
    malformed input raises, so a caller catches one exception.
    """
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise json.JSONDecodeError(str(exc), text, 0) from None


def digest16(record) -> str:
    """Short stable hash (sha256, 16 hex chars) of the canonical spelling."""
    return hashlib.sha256(canonical_json(record).encode("utf-8")).hexdigest()[:16]


class EventLog:
    """Append-only event log with deterministic serialisation.

    Every entry is ``{"seq", "t", "phase", <key fields>, "detail"?}``:
    ``t`` is *virtual* simulation seconds (never host wall clock),
    ``seq`` the append index, and ``detail`` holds JSON scalars only —
    so the serialised log is byte-identical across hosts, repeat runs,
    and any ``--jobs`` width, and :meth:`digest` pins that in payloads.
    Subclasses name their lifecycle ``PHASES`` and their ``KEYS`` (the
    required per-entry fields, each with the coercion that keeps it a
    JSON scalar).
    """

    PHASES: tuple[str, ...] = ()
    KEYS: tuple[tuple[str, type], ...] = ()

    def __init__(self) -> None:
        self._entries: list[dict] = []
        self._reset_hash()

    def _reset_hash(self) -> None:
        # Running sha256 over the canonical list spelling of the first
        # ``_hashed`` entries: "[" e0 "," e1 ... (the closing "]" is
        # added to a copy by digest()).
        self._hash = hashlib.sha256(b"[")
        self._hashed = 0

    def __getstate__(self) -> dict:
        # Hash objects do not pickle; digest() rebuilds one from the entries.
        state = self.__dict__.copy()
        del state["_hash"], state["_hashed"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._reset_hash()

    def __len__(self) -> int:
        return len(self._entries)

    def append(self, phase: str, *, t: float, **fields) -> dict:
        """Record one step (key fields by keyword, the rest is detail)."""
        if phase not in self.PHASES:
            raise ValueError(
                f"unknown log phase {phase!r}; expected one of {self.PHASES}"
            )
        entry = {"seq": len(self._entries), "t": round(float(t), 9), "phase": phase}
        for name, coerce in self.KEYS:
            entry[name] = coerce(fields.pop(name))
        if fields:
            entry["detail"] = {
                key: _jsonable(value) for key, value in sorted(fields.items())
            }
        self._entries.append(entry)
        return entry

    def to_dicts(self) -> list[dict]:
        """A deep-enough copy safe to embed in payloads."""
        return [
            {**entry, **({"detail": dict(entry["detail"])} if "detail" in entry else {})}
            for entry in self._entries
        ]

    def to_json(self) -> str:
        """Canonical serialisation (sorted keys, no whitespace)."""
        return canonical_json(self._entries)

    def tail(self, start: int) -> list[dict]:
        """The entries appended since the log was ``start`` long."""
        return self._entries[start:]

    def digest(self) -> str:
        """Short stable hash of the canonical serialisation.

        Equal to ``digest16`` of the entries, but lazily incremental:
        each call serialises only what was appended since the last one,
        and a log nobody digests (the batch path) hashes nothing.
        """
        for entry in self._entries[self._hashed :]:
            prefix = "," if self._hashed else ""
            self._hash.update((prefix + canonical_json(entry)).encode("utf-8"))
            self._hashed += 1
        closed = self._hash.copy()
        closed.update(b"]")
        return closed.hexdigest()[:16]


def _jsonable(value):
    """Coerce a detail value to JSON scalars/lists (fail loudly otherwise)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    # numpy scalars and the like
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"log detail values must be JSON scalars, got {value!r}")


__all__ = ["canonical_json", "digest16", "EventLog"]
