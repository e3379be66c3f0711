"""Structured, wall-clock-free brain decision log.

The autotuner's :class:`~repro.utils.eventlog.EventLog` (the class the
fault log also specialises): every decision tick and every
applied/declined action appends one entry —

``{"seq", "t", "phase", "job", "detail"?}``

``t`` is *virtual* simulation seconds, ``seq`` the append index, and
``detail`` holds JSON scalars only, so the serialised log is
byte-identical across hosts, repeat runs, and any ``--jobs`` width.
:meth:`BrainLog.digest` pins that (``tests/brain/test_driver_integration.py``).
"""

from __future__ import annotations

from repro.utils.eventlog import EventLog

#: The lifecycle phases a brain-log entry can record: ``tick`` opens a
#: decision round, the three action kinds record applied decisions, and
#: ``decline`` records an action the driver refused (dwell window,
#: gang constraint, infeasible target, or the per-tick action cap).
PHASES = ("tick", "migrate", "shrink", "grow", "decline")


class BrainLog(EventLog):
    """The brain decision log: :class:`EventLog` keyed by job."""

    PHASES = PHASES
    KEYS = (("job", str),)


__all__ = ["PHASES", "BrainLog"]
