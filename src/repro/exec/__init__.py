"""Multicore sweeps: independent tasks fanned across a process pool.

The ``exec`` subsystem decides *where* a sweep's tasks run, never *what*
they compute — every backend is bit-identical to the serial reference.
A training step always runs inline in its own process.

* :mod:`repro.exec.backend` — the ``BACKENDS`` registry (``serial`` /
  ``process``) and the persistent worker pool;
* :mod:`repro.exec.sweeper` — :class:`ParallelSweeper`, fanning
  independent ``RunConfig``\\ s / sched policies / experiment harnesses
  across the pool with deterministic result ordering;
* :mod:`repro.exec.worker` — the child-process service loop.

Select a backend declaratively (``"exec": {"backend": "process",
"jobs": 4}`` in a sched config) or from the command line
(``python -m repro sched ... --backend process --jobs 4``, and the same
flags on ``python -m repro experiments``).
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
        "repro.exec.sweeper": ["ParallelSweeper"],
    },
)
