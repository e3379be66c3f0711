"""Multicore sweeps: independent tasks fanned across a process pool.

The ``exec`` subsystem decides *where* a sweep's tasks run, never *what*
they compute — a sweep is bit-identical at every width.  A training step
always runs inline in its own process.

* :mod:`repro.exec.config` — :class:`ExecConfig`, the sched config's
  ``exec`` section, whose one field is the pool width ``jobs``, and
  :func:`resolve_jobs`, the one check of a width;
* :mod:`repro.exec.sweeper` — :class:`ParallelSweeper`, fanning
  independent ``RunConfig``\\ s / sched policies / experiment harnesses
  across a stdlib ``ProcessPoolExecutor`` with deterministic result
  ordering.

Set the width declaratively (``"exec": {"jobs": 4}`` in a sched config)
or from the command line (``python -m repro sched ... --jobs 4``, and the
same flag on ``python -m repro experiments``).
"""

from repro.utils.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.exec.config": ["ExecConfig", "cpu_count", "resolve_jobs"],
        "repro.exec.sweeper": ["ParallelSweeper"],
    },
)
