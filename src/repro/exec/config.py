"""The ``exec`` section of a sched config: the sweep's pool width.

Width is the only exec setting: ``jobs == 1`` runs a sweep inline,
anything wider fans it across that many worker processes (``0`` = all
usable cores), and the result is bit-identical at every width (pinned by
``tests/exec/``).  :func:`resolve_jobs` is the one place a width is
checked, for configs and command-line flags alike.

This module imports nothing of the pool itself: the config codec loads
it in every sched and serve process, which never fan out.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.utils.registry import ConfigError


@dataclass(frozen=True)
class ExecConfig:
    """Where a sched config's per-policy simulations run.

    Never changes *what* is computed, so this section is pure
    wall-clock policy.
    """

    #: Worker processes for the policy sweep: 1 = inline (the default),
    #: 0 = all usable cores.
    jobs: int = 1

    def validate(self) -> None:
        resolve_jobs(self.jobs)


def cpu_count() -> int:
    """Usable cores (honours CPU affinity where the OS exposes it)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_jobs(jobs: int) -> int:
    """The pool width ``jobs`` asks for: ``0`` means all usable cores.

    Raises :class:`~repro.utils.registry.ConfigError` (a ``ValueError``,
    so every CLI reports it as one ``error:`` line) below zero.
    """
    if jobs < 0:
        raise ConfigError(f"jobs must be >= 0 (0 = all usable cores), got {jobs}")
    return cpu_count() if jobs == 0 else jobs


__all__ = ["ExecConfig", "cpu_count", "resolve_jobs"]
