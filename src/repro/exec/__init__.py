"""Multicore execution engine: pluggable backends for model compute.

The ``exec`` subsystem decides *where* work runs, never *what* it
computes — every backend is bit-identical to the serial reference:

* :mod:`repro.exec.backend` — the ``BACKENDS`` registry (``serial`` /
  ``process``) and the persistent shared-memory worker pool;
* :mod:`repro.exec.engine` — the trainer-facing step engine fanning
  per-worker forward/backward across real CPU cores through a shared
  ``(W, d)`` gradient matrix;
* :mod:`repro.exec.sweeper` — :class:`ParallelSweeper`, fanning
  independent ``RunConfig``\\ s / sched policies / experiment harnesses
  across the same pool with deterministic result ordering;
* :mod:`repro.exec.shm` / :mod:`repro.exec.worker` — the shared-memory
  blocks and the child-process service loop underneath both faces.

Select a backend declaratively (``"exec": {"backend": "process",
"jobs": 4}`` in any run/sched config) or from the command line
(``python -m repro run ... --backend process --jobs 4``).
"""

from repro.utils.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.exec.backend": [
            "BACKENDS",
            "ExecConfig",
            "ProcessBackend",
            "SerialBackend",
            "build_backend",
            "cpu_count",
            "register_backend",
            "resolve_jobs",
        ],
        "repro.exec.engine": ["ProcessStepEngine"],
        "repro.exec.shm": ["SharedArray"],
        "repro.exec.sweeper": ["ParallelSweeper"],
    },
)
