"""Pluggable placement policies for the multi-tenant scheduler.

A placement policy answers one question: *given the nodes that can hold
this job, which should it get first?*  The scheduler computes the
feasible candidate set (nodes with enough free GPUs), the policy orders
it, and the scheduler takes as many nodes off the front as the job's
elastic window allows.  Keeping policies as pure ordering functions
makes them trivially composable with admission, preemption and
autoscaling, which stay in the scheduler.

Policies register in the ``repro.api`` registry style::

    from repro.sched import register_policy

    @register_policy("lowest-id")
    def _lowest_id(job, candidates, state):
        return sorted(candidates)

Built-ins:

* ``bin-pack`` — fill the busiest feasible nodes first.  Minimises the
  number of occupied nodes (large idle blocks stay available for big
  arrivals) at the price of NIC contention between co-located jobs.
* ``spread`` — emptiest nodes first.  Minimises co-location, so each
  job keeps more NIC bandwidth, at the price of fragmenting the
  cluster.
* ``network-aware`` — prefer neighbours that talk the least: order by
  the total *communication intensity* (solo comm-time fraction, see
  :meth:`ClusterState.comm_load`) already resident on each node, then
  emptiest-first.  Comm-heavy jobs land next to compute-heavy ones, the
  bandwidth-sharing penalty both pay shrinks — the placement lesson of
  running 25 Gbps clouds at multi-tenant occupancy.
* ``fault-aware`` — read the fault driver's node-health ledger: avoid
  quarantined and suspect nodes, spread across AZ blocks, and keep
  deadline/priority jobs on the cleanest hardware.  Fault-blind
  without a fault plan (degenerates to ``spread``).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.sched.job import JobSpec
from repro.utils.registry import Registry

#: Policy registry: ``f(job, candidates, state) -> ordered candidate list``.
POLICIES = Registry("policy")


def register_policy(name: str, *, aliases: Iterable[str] = (), overwrite: bool = False):
    """Register a placement policy ordering function.

    The callable receives ``(job: JobSpec, candidates: Sequence[int],
    state: ClusterState)`` and returns the candidate node ids ordered
    most-preferred first (a permutation of ``candidates``).
    """
    return POLICIES.register(name, aliases=aliases, overwrite=overwrite)


def build_policy(name: str) -> Callable:
    """Resolve a registered policy by name or alias."""
    return POLICIES.get(name)


class ClusterState:
    """Occupancy of the shared cluster: who holds how many GPUs where.

    Tracks, per node, the GPUs each job occupies, plus each job's
    communication intensity (fraction of its solo iteration spent in
    communication) so network-aware policies can weigh neighbours by how
    hard they hit the shared NIC.

    This is the only place an allocation, a tenant count or a node's
    up/down status can change, so the four transitions — :meth:`place`,
    :meth:`release`, :meth:`set_down`, :meth:`set_up` — do all the
    invalidating for everything derived from occupancy:

    * ``version`` counts transitions.  Anything that is a pure function
      of the occupancy (a memoised :meth:`feasible_count`, a refused
      admission, a preemption budget) is valid exactly while the
      ``version`` it was computed at is still current.
    * ``touched`` collects the jobs whose node count or
      :meth:`contention_for` a transition may have changed: the job
      placed or released, plus every co-tenant of each node it joined
      or left.  The event loop re-prices those jobs and clears the set.

    ``version``, ``touched``, the :meth:`feasible_count` memo and the
    :meth:`busy_nodes` counter are all derived, so they are left out of
    pickles and rebuilt on restore: a restored state starts at
    ``version`` 0 with nothing touched, and the
    :class:`~repro.sched.core.SchedRun` holding values stamped with an
    older ``version`` is restored without them.
    """

    def __init__(self, num_nodes: int, gpus_per_node: int) -> None:
        if num_nodes < 1 or gpus_per_node < 1:
            raise ValueError("num_nodes and gpus_per_node must be >= 1")
        self.num_nodes = num_nodes
        self.gpus_per_node = gpus_per_node
        self._occupants: dict[int, dict[str, int]] = {n: {} for n in range(num_nodes)}
        #: Free GPUs per node, maintained incrementally — free_gpus() is
        #: the hottest query on trace-scale backlogs (policy sort keys,
        #: feasibility scans, preemption planning all hit it).
        self._free: dict[int, int] = {n: gpus_per_node for n in range(num_nodes)}
        self._comm_intensity: dict[str, float] = {}
        #: Nodes taken out of service by a fault (crash/reclaim); they
        #: hold no jobs and accept no placements until repaired.
        self._down: set[int] = set()
        #: Health ledger published by the fault driver (None without a
        #: fault plan) and the current virtual time — read exclusively
        #: by the ``fault-aware`` policy; the fault-free paths never
        #: touch either.
        self.health = None
        self.now = 0.0
        self._reset_derived()

    #: Attributes derived from the occupancy (see the class docstring).
    _DERIVED = ("version", "touched", "_feasible", "_busy")

    def _reset_derived(self) -> None:
        self.version = 0
        self.touched: set[str] = set()
        #: GPUs wanted -> feasible node count, at the current version.
        self._feasible: dict[int, int] = {}
        self._busy = sum(1 for occupants in self._occupants.values() if occupants)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in self._DERIVED:
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._reset_derived()

    def _changed(self) -> None:
        self.version += 1
        self._feasible.clear()

    # -- queries --------------------------------------------------------------
    def free_gpus(self, node: int) -> int:
        return self._free[node]

    def is_up(self, node: int) -> bool:
        return node not in self._down

    def occupants_of(self, node: int) -> dict[str, int]:
        """``{job: gpus}`` currently resident on ``node`` (a copy)."""
        return dict(self._occupants[node])

    def tenants(self, node: int) -> int:
        """Number of distinct jobs holding GPUs on this node."""
        return len(self._occupants[node])

    def jobs_on(self, node: int) -> tuple[str, ...]:
        return tuple(sorted(self._occupants[node]))

    def gpus_of(self, job: str, node: int) -> int:
        """GPUs ``job`` occupies on ``node`` (0 if absent)."""
        return self._occupants[node].get(job, 0)

    def comm_load(self, node: int) -> float:
        """Total communication intensity already resident on a node."""
        return sum(
            self._comm_intensity.get(name, 0.0) for name in self._occupants[node]
        )

    def feasible_nodes(self, gpus: int, *, exclude: Iterable[int] = ()) -> list[int]:
        """Up nodes with at least ``gpus`` free, ascending id."""
        excluded = set(exclude) | self._down
        return [
            n
            for n in range(self.num_nodes)
            if n not in excluded and self.free_gpus(n) >= gpus
        ]

    def feasible_count(self, gpus: int) -> int:
        """``len(feasible_nodes(gpus))``, computed once per ``version``."""
        count = self._feasible.get(gpus)
        if count is None:
            down = self._down
            count = self._feasible[gpus] = sum(
                1 for n, free in self._free.items() if free >= gpus and n not in down
            )
        return count

    def contention_for(self, nodes: Iterable[int]) -> int:
        """Worst-case tenant count across a node set (>= 1)."""
        counts = [self.tenants(n) for n in nodes]
        return max(counts) if counts else 1

    def busy_nodes(self) -> int:
        """Nodes with at least one tenant."""
        return self._busy

    # -- transitions ----------------------------------------------------------
    def place(self, job: str, nodes: Iterable[int], gpus: int) -> None:
        nodes = list(nodes)
        for node in nodes:
            if self.free_gpus(node) < gpus:
                raise ValueError(
                    f"node {node} has {self.free_gpus(node)} free GPUs, "
                    f"job {job!r} needs {gpus}"
                )
            if job in self._occupants[node]:
                raise ValueError(f"job {job!r} already occupies node {node}")
        self._changed()
        touched = self.touched
        touched.add(job)
        for node in nodes:
            occupants = self._occupants[node]
            if occupants:
                touched.update(occupants)
            else:
                self._busy += 1
            occupants[job] = gpus
            self._free[node] -= gpus

    def release(self, job: str, nodes: Iterable[int] | None = None) -> None:
        targets = (
            list(nodes)
            if nodes is not None
            else [n for n, occ in self._occupants.items() if job in occ]
        )
        self._changed()
        touched = self.touched
        touched.add(job)
        for node in targets:
            occupants = self._occupants[node]
            if job not in occupants:
                raise KeyError(f"job {job!r} does not occupy node {node}")
            self._free[node] += occupants.pop(job)
            if occupants:
                touched.update(occupants)
            else:
                self._busy -= 1

    def set_comm_intensity(self, job: str, intensity: float) -> None:
        self._comm_intensity[job] = max(0.0, float(intensity))

    def set_down(self, node: int) -> None:
        """Take a node out of service (fault injection).

        The caller is responsible for evicting its occupants first;
        marking an occupied node down is an accounting error.
        """
        if self._occupants[node]:
            raise ValueError(
                f"node {node} still hosts {sorted(self._occupants[node])}; "
                "release its jobs before marking it down"
            )
        self._changed()
        self._down.add(node)

    def set_up(self, node: int) -> None:
        """Return a repaired node to service."""
        self._changed()
        self._down.discard(node)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        occupied = {n: occ for n, occ in self._occupants.items() if occ}
        return f"ClusterState({self.num_nodes}x{self.gpus_per_node}, {occupied})"


# ---------------------------------------------------------------------------
# Built-in policies
# ---------------------------------------------------------------------------


@register_policy("bin-pack", aliases=("binpack", "pack"))
def _bin_pack(job: JobSpec, candidates: Sequence[int], state: ClusterState) -> list[int]:
    """Busiest feasible nodes first (fewest free GPUs)."""
    return sorted(candidates, key=lambda n: (state.free_gpus(n), n))


@register_policy("spread", aliases=("scatter",))
def _spread(job: JobSpec, candidates: Sequence[int], state: ClusterState) -> list[int]:
    """Emptiest nodes first (most free GPUs, fewest tenants)."""
    return sorted(candidates, key=lambda n: (-state.free_gpus(n), state.tenants(n), n))


@register_policy("network-aware", aliases=("netaware", "contention-aware"))
def _network_aware(
    job: JobSpec, candidates: Sequence[int], state: ClusterState
) -> list[int]:
    """Least resident communication intensity first, then emptiest."""
    return sorted(
        candidates,
        key=lambda n: (
            round(state.comm_load(n), 12),
            state.tenants(n),
            -state.free_gpus(n),
            n,
        ),
    )


@register_policy("fault-aware", aliases=("health-aware",))
def _fault_aware(
    job: JobSpec, candidates: Sequence[int], state: ClusterState
) -> list[int]:
    """Steer work away from unhealthy hardware using the health ledger.

    Three signals, in order:

    1. **Quarantined nodes last.**  A repeat offender sits at the very
       back of the ordering until its probe clears it — still a valid
       candidate (the policy stays a pure permutation, so a saturated
       cluster can fall back to it), but only when nothing cleaner fits.
    2. **Suspicion.**  Deadline/priority jobs sort candidates by exact
       decayed suspicion (cleanest node first); best-effort jobs only
       dodge *heavily* suspect nodes (>= half the quarantine threshold)
       and otherwise keep spread's capacity ordering — mildly flaky
       hardware is fine for work nobody is waiting on.
    3. **AZ-block spreading.**  Candidates are interleaved round-robin
       across contiguous node blocks (the same blocks an ``az-reclaim``
       takes out), so a k-node job spans up to k blocks and one reclaim
       cannot erase the whole allocation.

    Without a fault plan there is no ledger (``state.health`` is None)
    and the policy degenerates to ``spread``.
    """
    ledger = state.health
    if ledger is None:
        return _spread(job, candidates, state)
    now = state.now
    threshold = ledger.policy.quarantine_threshold
    critical = job.priority > 0 or job.deadline_seconds is not None

    def key(n: int):
        suspicion = round(ledger.suspicion(n, now), 9)
        if not critical:
            suspicion = 1 if suspicion >= threshold / 2 else 0
        return (suspicion, state.tenants(n), -state.free_gpus(n), n)

    pool = [n for n in candidates if not ledger.is_quarantined(n)]
    avoid = sorted((n for n in candidates if ledger.is_quarantined(n)), key=key)
    # Interleave across AZ blocks: round r holds every block's r-th
    # choice, each round ordered cleanest-first.
    block = max(1, (state.num_nodes + 3) // 4)
    by_block: dict[int, list[int]] = {}
    for n in sorted(pool):
        by_block.setdefault(n // block, []).append(n)
    for members in by_block.values():
        members.sort(key=key)
    ordered: list[int] = []
    depth = 0
    while len(ordered) < len(pool):
        heads = [
            (key(members[depth]), members[depth])
            for members in by_block.values()
            if depth < len(members)
        ]
        ordered.extend(n for _, n in sorted(heads))
        depth += 1
    return ordered + avoid


__all__ = [
    "POLICIES",
    "register_policy",
    "build_policy",
    "ClusterState",
]
