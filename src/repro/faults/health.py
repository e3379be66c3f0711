"""Deterministic per-node health ledger (``repro.faults.health``).

Production control planes (IBM DLS-style health checking) keep a
running opinion of every node and steer placement away from repeat
offenders.  :class:`NodeHealthLedger` reproduces that signal from the
:class:`~repro.faults.log.FaultLog` event stream alone: each observed
fault adds a per-kind suspicion weight, the score decays
phi-accrual-style with a configurable half-life, and a node whose score
crosses ``quarantine_threshold`` is quarantined until a probe —
``probe_cooldown`` virtual seconds later — halves its score and returns
it to the candidate pool.  A node that re-offends after a probe starts
half-suspect and crosses the threshold faster: repeat-offender memory.

Everything is pure arithmetic on virtual timestamps — no RNG, no wall
clock — so the ledger timeline is identical across policies, repeat
runs, and any ``--jobs`` width.  The ``fault-aware`` placement policy
(:mod:`repro.sched.policies`) reads it through ``ClusterState.health``.
"""

from __future__ import annotations

from repro.faults.plan import FaultsConfig

#: Suspicion added per observed fault, by kind.  Hard failures weigh
#: more than performance gray-ness; unknown kinds use ``_DEFAULT_WEIGHT``.
KIND_WEIGHTS = {
    "node-crash": 1.0,
    "az-reclaim": 0.8,
    "gray-net": 0.7,
    "straggler": 0.6,
    "disk-slow": 0.6,
    "nic-degrade": 0.4,
}

_DEFAULT_WEIGHT = 0.5


class NodeHealthLedger:
    """Per-node suspicion scores with decay, quarantine, and probes.

    ``policy`` is the ``faults`` section itself: the ledger reads its
    ``quarantine_threshold`` / ``health_half_life`` / ``probe_cooldown``.
    """

    def __init__(self, policy: FaultsConfig | None = None) -> None:
        self.policy = policy if policy is not None else FaultsConfig()
        self.policy.validate()
        self._score: dict[int, float] = {}
        self._updated: dict[int, float] = {}
        #: node -> virtual time its health probe is due.
        self._probe_at: dict[int, float] = {}
        self.quarantines = 0
        self.probes = 0

    # -- queries ---------------------------------------------------------------
    def suspicion(self, node: int, now: float) -> float:
        """The decayed suspicion score of ``node`` at virtual time ``now``."""
        score = self._score.get(node)
        if score is None:
            return 0.0
        dt = max(0.0, now - self._updated[node])
        return score * 0.5 ** (dt / self.policy.health_half_life)

    def is_quarantined(self, node: int) -> bool:
        return node in self._probe_at

    def quarantined_nodes(self) -> list[int]:
        return sorted(self._probe_at)

    def due_probes(self, now: float) -> list[int]:
        """Quarantined nodes whose cool-down has elapsed at ``now``."""
        return sorted(n for n, t in self._probe_at.items() if t <= now + 1e-12)

    def next_boundary(self, now: float) -> float | None:
        """Earliest future probe time, or ``None``."""
        future = [t for t in self._probe_at.values() if t > now + 1e-12]
        return min(future) if future else None

    # -- transitions -----------------------------------------------------------
    def observe(self, node: int, now: float, kind: str) -> bool:
        """Record one fault on ``node``; True when this quarantines it."""
        node = int(node)
        score = self.suspicion(node, now) + KIND_WEIGHTS.get(kind, _DEFAULT_WEIGHT)
        self._score[node] = score
        self._updated[node] = now
        if node in self._probe_at or score < self.policy.quarantine_threshold:
            return False
        self._probe_at[node] = now + self.policy.probe_cooldown
        self.quarantines += 1
        return True

    def probe(self, node: int, now: float) -> float:
        """Probe ``node`` back to service; returns its halved score."""
        self._probe_at.pop(node, None)
        score = self.suspicion(node, now) / 2.0
        self._score[node] = score
        self._updated[node] = now
        self.probes += 1
        return score

    # -- reporting -------------------------------------------------------------
    def summary(self) -> dict:
        """JSON-ready counters for the driver's fault summary."""
        return {
            "quarantines": self.quarantines,
            "probes": self.probes,
            "quarantined_end": self.quarantined_nodes(),
            "suspects": sorted(self._score),
        }


__all__ = ["KIND_WEIGHTS", "NodeHealthLedger"]
