"""Structured, wall-clock-free fault event log.

Every injection, detection, and recovery step appends one entry:

``{"seq", "t", "phase", "kind", "fault_id", "target", "detail"?}``

``t`` is *virtual* simulation seconds (never host wall clock), ``seq``
is the append index, and ``detail`` holds JSON scalars only — so the
serialised log is byte-identical across hosts, repeat runs, and any
``--jobs`` width, and :meth:`FaultLog.digest` pins that in benchmark
payloads.
"""

from __future__ import annotations

from repro.utils.eventlog import EventLog

#: The lifecycle phases an entry can record.  ``quarantine`` and
#: ``probe`` are the health ledger's transitions (sched runs only).
PHASES = ("inject", "detect", "recover", "repair", "absorb", "quarantine", "probe")


class FaultLog(EventLog):
    """The fault event log: :class:`EventLog` keyed by fault + latencies."""

    PHASES = PHASES
    KEYS = (("kind", str), ("fault_id", int), ("target", str))

    def latencies(self, start: str = "inject", end: str = "recover") -> dict[int, float]:
        """Per-fault virtual latency from first ``start`` to last ``end``."""
        started: dict[int, float] = {}
        finished: dict[int, float] = {}
        for entry in self._entries:
            fid = entry["fault_id"]
            if entry["phase"] == start and fid not in started:
                started[fid] = entry["t"]
            elif entry["phase"] == end and fid in started:
                finished[fid] = entry["t"]
        return {
            fid: round(finished[fid] - started[fid], 9) for fid in sorted(finished)
        }

    def mean_latency(self, start: str = "inject", end: str = "recover") -> float | None:
        values = list(self.latencies(start, end).values())
        if not values:
            return None
        return round(sum(values) / len(values), 9)


__all__ = ["PHASES", "FaultLog"]
