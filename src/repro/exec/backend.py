"""Pluggable execution backends: where independent sweep tasks run.

The registry follows the ``repro.api`` pattern — ``BACKENDS`` /
:func:`register_backend` are the single source of backend names, what
``ExecConfig`` validates against and what ``--backend`` accepts:

* ``serial`` — everything inline in the calling process (the default);
* ``process`` — a persistent pool of ``jobs`` worker processes; whole
  independent tasks (sweep configs, sched policies, experiment
  harnesses) dispatch through :meth:`ProcessBackend.map`.

``map`` returns results in submission order, so ``jobs=1`` and
``jobs=N`` produce bit-identical outputs (pinned by
``tests/exec/test_invariance.py``).  A training step always runs inline.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.exec.worker import CALL, STOP, worker_main
from repro.utils.registry import ConfigError, Registry

BACKENDS = Registry("exec backend")

#: Start methods ExecConfig accepts (``None`` = platform preference).
START_METHODS = ("fork", "spawn", "forkserver")


def register_backend(name: str, *, aliases: Iterable[str] = (), overwrite: bool = False):
    """Register a backend factory ``f(*, jobs, start_method) -> ExecBackend``."""
    return BACKENDS.register(name, aliases=aliases, overwrite=overwrite)


@dataclass(frozen=True)
class ExecConfig:
    """The ``exec`` section of a sched config: backend + pool width.

    Never changes *what* is computed — every backend is bit-identical to
    ``serial`` (results are pinned by the invariance suite), so this
    section is pure wall-clock policy.
    """

    #: Registered execution backend (``python -m repro list backends``);
    #: built-ins: ``serial`` (inline, the default) / ``process``
    #: (worker pool on real CPU cores).
    backend: str = "serial"
    #: Pool width for parallel backends: worker processes for sweep
    #: fan-out (0 = all usable cores; ignored by ``serial``).
    jobs: int = 1
    #: Multiprocessing start method (``fork`` / ``spawn`` /
    #: ``forkserver``; None = platform preference — ``fork`` where
    #: available, else ``spawn``).
    start_method: str | None = None

    def validate(self) -> None:
        BACKENDS.require(self.backend)
        if self.jobs < 0:
            raise ConfigError(f"exec jobs must be >= 0 (0 = all cores), got {self.jobs}")
        if self.start_method is not None and self.start_method not in START_METHODS:
            raise ConfigError(
                f"unknown exec start_method {self.start_method!r}; "
                f"accepted: {', '.join(START_METHODS)}"
            )


def cpu_count() -> int:
    """Usable cores (honours CPU affinity where the OS exposes it)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_jobs(jobs: int) -> int:
    """``jobs=0`` means "all usable cores"; otherwise at least 1."""
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return cpu_count() if jobs == 0 else jobs


class SerialBackend:
    """Run everything inline — the reference semantics every other
    backend must be bit-identical to."""

    name = "serial"
    jobs = 1

    def map(self, fn: Callable[..., Any], items: Sequence[Any]) -> list[Any]:
        """Apply ``fn`` to each item, in order, in this process."""
        return [fn(item) for item in items]

    def close(self) -> None:
        return None

    def __enter__(self) -> "SerialBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _Worker:
    """Parent-side handle on one pool process."""

    def __init__(self, ctx, index: int) -> None:
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=worker_main,
            args=(child_conn,),
            name=f"repro-exec-{index}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()

    def request(self, message: tuple) -> Any:
        self.conn.send(message)
        return self.reply()

    def reply(self) -> Any:
        status, payload = self.conn.recv()
        if status == "error":
            raise RuntimeError(f"exec pool worker failed:\n{payload}")
        return payload

    def stop(self) -> None:
        try:
            self.conn.send((STOP,))
            self.conn.recv()
        except (OSError, EOFError, BrokenPipeError):  # pragma: no cover
            pass
        self.conn.close()
        self.process.join(timeout=5)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout=5)


class ProcessBackend:
    """A persistent worker pool over real CPU cores.

    Workers are spawned lazily on first use and live until
    :meth:`close` (or parent exit — they are daemonic), so a long sweep
    pays the process start-up cost once.  ``start_method`` defaults to
    ``fork`` where the platform offers it (cheap, inherits the loaded
    interpreter) and ``spawn`` elsewhere.  Standard multiprocessing semantics apply under
    ``spawn``: it re-imports the driver's ``__main__``, so scripts using
    it must guard their entry point with ``if __name__ == "__main__":``
    (the CLI and pytest already do).
    """

    name = "process"

    def __init__(self, *, jobs: int = 0, start_method: str | None = None) -> None:
        self.jobs = resolve_jobs(jobs)
        if start_method is not None and start_method not in START_METHODS:
            raise ValueError(
                f"unknown start_method {start_method!r}; "
                f"accepted: {', '.join(START_METHODS)}"
            )
        if start_method is None:
            start_method = (
                "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
            )
        self.start_method = start_method
        self._ctx = multiprocessing.get_context(start_method)
        self._workers: list[_Worker] = []

    # -- pool plumbing -----------------------------------------------------
    def _ensure_workers(self, count: int) -> list[_Worker]:
        while len(self._workers) < min(count, self.jobs):
            self._workers.append(_Worker(self._ctx, len(self._workers)))
        return self._workers[: min(count, self.jobs)]

    def map(self, fn: Callable[..., Any], items: Sequence[Any]) -> list[Any]:
        """Apply ``fn`` to each item across the pool, dynamically balanced.

        Results come back in submission order regardless of completion
        order, so a parallel sweep is a drop-in for a serial loop.
        """
        items = list(items)
        if not items:
            return []
        workers = self._ensure_workers(len(items))
        if len(workers) == 1:
            return [workers[0].request((CALL, fn, (item,))) for item in items]
        results: list[Any] = [None] * len(items)
        pending = list(enumerate(items))
        inflight: dict[Any, tuple[_Worker, int]] = {}
        for worker in workers:
            if not pending:
                break
            index, item = pending.pop(0)
            worker.conn.send((CALL, fn, (item,)))
            inflight[worker.conn] = (worker, index)
        error: BaseException | None = None
        while inflight:
            ready = multiprocessing.connection.wait(list(inflight))
            for conn in ready:
                worker, index = inflight.pop(conn)
                try:
                    results[index] = worker.reply()
                except BaseException as exc:
                    # Keep draining the other workers' in-flight replies
                    # before raising: the protocol pairs requests and
                    # replies without sequence numbers, so abandoning a
                    # queued reply would desync the persistent pool and
                    # surface as *stale results* on the next call.
                    if error is None:
                        error = exc
                    continue
                if pending and error is None:
                    next_index, item = pending.pop(0)
                    worker.conn.send((CALL, fn, (item,)))
                    inflight[worker.conn] = (worker, next_index)
        if error is not None:
            raise error
        return results

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Stop every pool worker and drop the pool."""
        workers, self._workers = self._workers, []
        for worker in workers:
            worker.stop()

    def __enter__(self) -> "ProcessBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


@register_backend("serial", aliases=("inline", "none"))
def _build_serial(*, jobs: int = 1, start_method: str | None = None) -> SerialBackend:
    return SerialBackend()


@register_backend("process", aliases=("multiprocessing", "mp"))
def _build_process(*, jobs: int = 0, start_method: str | None = None) -> ProcessBackend:
    return ProcessBackend(jobs=jobs, start_method=start_method)


def build_backend(name: str, *, jobs: int = 0, start_method: str | None = None):
    """Build a registered execution backend by name."""
    return BACKENDS.get(name)(jobs=jobs, start_method=start_method)


__all__ = [
    "BACKENDS",
    "START_METHODS",
    "register_backend",
    "ExecConfig",
    "build_backend",
    "cpu_count",
    "resolve_jobs",
    "SerialBackend",
    "ProcessBackend",
]
