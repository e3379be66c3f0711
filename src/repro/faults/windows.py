"""The fault-window ledger both fault appliers keep their state in.

A :class:`FaultWindows` holds, for one simulation, the pending half of
the :class:`~repro.faults.plan.FaultPlan`, the open effect windows of
the four windowed families, the ``injected / recovered / absorbed``
counters, and the one spelling of a :class:`~repro.faults.log.FaultLog`
entry (``kind`` / ``fault_id`` / ``target`` are written here and nowhere
else).  :class:`~repro.faults.injector.FaultInjector` (clock: wall
iterations) and :class:`~repro.faults.sched_driver.SchedFaultDriver`
(clock: virtual seconds) add only what a fault *means* on their surface.

``tables[family]`` maps a key to ``(until, value, event, node)``.  A
window opened with a ``node`` is keyed by it, so a second window on the
same node silently replaces the first; one opened without stacks under a
fresh negative key.  The tables are plain dicts read directly by the
appliers' per-step queries; nothing here is memoised.
"""

from __future__ import annotations

import math
from collections import deque

#: Windowed effect families, in the order :meth:`FaultWindows.expire`
#: sweeps them, with the ``recover`` phrase each one closes under.
FAMILIES = {
    "nic": "bandwidth restored",
    "straggler": "compute speed restored",
    "gray": "link health restored",
    "disk": "disk speed restored",
}

#: Slack on "is this event due": clocks are sums of float steps.
_DUE_EPS = 1e-12


def _sweep_order(key: int) -> int:
    # Stacked windows (negative keys) first, in open order — sorted() is
    # stable and dicts keep insertion order — then nodes ascending.
    return max(key, -1)


class FaultWindows:
    """Pending events, open windows, counters and log phrasing of one plan.

    ``expiry_eps`` is the adapter's slack on ``until <= clock``: 0 for
    integer wall iterations, 1e-12 for accumulated virtual seconds.
    """

    def __init__(self, plan, log, *, expiry_eps: float) -> None:
        self.plan = plan
        self.log = log
        self.expiry_eps = expiry_eps
        self.pending = deque(plan.events)  # already sorted by (at, fault_id)
        self.tables: dict[str, dict[int, tuple]] = {family: {} for family in FAMILIES}
        self._stacked = 0
        self.injected = 0
        self.recovered = 0
        self.absorbed = 0

    # -- the plan's timeline ---------------------------------------------------
    def pop_due(self, clock: float):
        """Yield (and consume) every pending event with ``at <= clock``."""
        pending = self.pending
        while pending and pending[0].at <= clock + _DUE_EPS:
            yield pending.popleft()

    def boundaries(self) -> list[float]:
        """Every time the ledger changes by itself: the next pending
        event and the end of each open, non-permanent window."""
        times = [self.pending[0].at] if self.pending else []
        for table in self.tables.values():
            if table:
                times += [w[0] for w in table.values() if w[0] != math.inf]
        return times

    # -- windows ---------------------------------------------------------------
    def open(self, family: str, event, value, node: int | None = None) -> None:
        """Open ``event``'s window (until ``event.until``) carrying ``value``."""
        if node is None:
            self._stacked += 1
            key = -self._stacked
        else:
            key = node
        self.tables[family][key] = (event.until, value, event, node)

    def expire(self, clock: float, t: float) -> None:
        """Close every window with ``until <= clock``; log ``recover`` at ``t``."""
        limit = clock + self.expiry_eps
        for family, table in self.tables.items():
            if not table:
                continue
            due = [key for key, window in table.items() if window[0] <= limit]
            for key in sorted(due, key=_sweep_order):
                _, _, event, node = table.pop(key)
                self.recover(event, t, node=node, action=FAMILIES[family])

    # -- log entries + counters ------------------------------------------------
    def emit(self, phase: str, event, t: float, node=None, **detail) -> None:
        """Append one ``phase`` entry for ``event`` at virtual time ``t``
        (``node`` joins the detail unless it is ``None``)."""
        if node is not None:
            detail["node"] = node
        self.log.append(
            phase,
            t=t,
            kind=event.kind,
            fault_id=event.fault_id,
            target=self.plan.target,
            **detail,
        )

    def inject(self, event, t: float, **detail) -> None:
        self.injected += 1
        self.emit("inject", event, t, **detail)

    def absorb(self, event, t: float, reason: str) -> None:
        self.absorbed += 1
        self.emit("absorb", event, t, reason=reason)

    def recover(self, event, t: float, **detail) -> None:
        self.recovered += 1
        self.emit("recover", event, t, **detail)


__all__ = ["FAMILIES", "FaultWindows"]
