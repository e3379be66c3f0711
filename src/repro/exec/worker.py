"""The pool worker: the loop running inside every child process.

One worker serves both faces of the execution backend:

* **step tasks** — run the trainer's compute kernel
  (:func:`repro.utils.partition.gradient_rows`) on an assigned
  contiguous row chunk of a bound :class:`EngineSpec`: the destination
  is a view of the engine's shared ``(W, d)`` matrix, the parameters
  are views of a shared flat buffer the parent refreshed before
  dispatch, so only the chunk's first row index and its (small) batches
  cross the pipe, and per-row losses / metrics and the kernel's phase
  records come back;
* **call tasks** — run an arbitrary module-level function (the sweep
  face: one fully independent ``RunConfig`` / sched policy / experiment
  per task) and pickle the result back.

The module is import-clean for the ``spawn`` start method: it pulls in
NumPy, the kernel and the shared-memory helper only; model classes
arrive by unpickling the bound spec.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Any

from repro.exec.shm import SharedArray
from repro.utils.partition import FlatLayout, gradient_rows

#: Message kinds of the parent -> worker protocol.
BIND, RELEASE, STEP, CALL, STOP = "bind", "release", "step", "call", "stop"


@dataclass
class EngineSpec:
    """Everything a worker needs to serve step tasks for one trainer.

    Shipped once per engine bind; ``grad_spec`` / ``param_spec`` are
    :meth:`SharedArray.spec` tuples naming the shared blocks, ``layout``
    places each parameter (and its gradient) in a flat row of them.
    """

    model: Any
    layout: FlatLayout
    grad_spec: tuple[str, tuple[int, ...], str]
    param_spec: tuple[str, tuple[int, ...], str]


@dataclass
class _BoundEngine:
    """Worker-side attached state for one engine id."""

    spec: EngineSpec
    grad: SharedArray
    params_flat: SharedArray

    def close(self) -> None:
        self.grad.close()
        self.params_flat.close()


def _bind(spec: EngineSpec) -> _BoundEngine:
    grad = SharedArray.attach(*spec.grad_spec)
    params_flat = SharedArray.attach(*spec.param_spec)
    return _BoundEngine(spec=spec, grad=grad, params_flat=params_flat)


class _PhaseRecords(list):
    """The kernel's ``timer``: ``(phase, seconds)`` records for the parent."""

    def add(self, phase: str, seconds: float) -> None:
        self.append((phase, seconds))


def _run_step(engine: _BoundEngine, lo: int, batches: list) -> tuple:
    """Compute rows ``lo .. lo + len(batches)`` of the shared matrix;
    returns ``(losses, metrics, phases)``, the first two per row."""
    spec = engine.spec
    phases = _PhaseRecords()
    losses, metrics = gradient_rows(
        spec.model,
        spec.layout.views(engine.params_flat.array),
        batches,
        engine.grad.array[lo : lo + len(batches)],
        spec.layout,
        phases,
    )
    return losses, metrics, list(phases)


def worker_main(conn) -> None:
    """The child-process service loop: handle messages until ``stop``.

    Every request gets exactly one ``("ok", payload)`` or
    ``("error", traceback)`` reply, so the parent can pair requests and
    replies without sequence numbers.
    """
    engines: dict[int, _BoundEngine] = {}
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):  # parent went away
                break
            kind = message[0]
            if kind == STOP:
                conn.send(("ok", None))
                break
            try:
                if kind == BIND:
                    _, engine_id, spec = message
                    engines[engine_id] = _bind(spec)
                    reply: Any = None
                elif kind == RELEASE:
                    _, engine_id = message
                    bound = engines.pop(engine_id, None)
                    if bound is not None:
                        bound.close()
                    reply = None
                elif kind == STEP:
                    _, engine_id, lo, batches = message
                    reply = _run_step(engines[engine_id], lo, batches)
                elif kind == CALL:
                    _, fn, args = message
                    reply = fn(*args)
                else:
                    raise ValueError(f"unknown worker message kind {kind!r}")
                conn.send(("ok", reply))
            except BaseException:
                conn.send(("error", traceback.format_exc()))
    finally:
        for bound in engines.values():
            bound.close()
        conn.close()


__all__ = ["EngineSpec", "worker_main", "BIND", "RELEASE", "STEP", "CALL", "STOP"]
