"""Parallel sweeps: independent tasks fanned across a process pool.

Every sweep in the repository — ``python -m repro experiments``, a sched
policy grid, a list of run configs — is a list of *fully
independent, seed-complete* tasks.  :class:`ParallelSweeper` executes
such a list at any width with **deterministic result ordering**: results
come back in submission order no matter which worker finished first, and
a child sched task runs inline (one layer of parallelism — the sweep —
at a time), so a parallel sweep is bit-identical to the serial loop it
replaces.

The module-level ``_task_*`` functions are the pool's picklable entry
points; keep them top-level (the ``spawn`` start method imports this
module by name in the children).
"""

from __future__ import annotations

import contextlib
import io
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence

from repro.exec.config import resolve_jobs


def _pool_context():
    """``fork`` where the platform has it (cheap: a child inherits the
    loaded interpreter), else ``spawn``.  Under ``spawn`` a child
    re-imports the driver's ``__main__``, so a script sweeping on such a
    platform guards its entry point with ``if __name__ == "__main__":``
    (the CLI and pytest already do)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class ParallelSweeper:
    """Fan independent tasks across a process pool, in order.

    Parameters
    ----------
    jobs:
        Pool width: ``1`` runs every task inline, in this process;
        ``0`` means all usable cores.  A wider sweep starts
        ``min(width, tasks)`` workers for each call and stops them
        before returning.
    """

    def __init__(self, *, jobs: int = 1) -> None:
        self.jobs = resolve_jobs(jobs)

    # ------------------------------------------------------------------
    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
        """``[fn(item) for item in items]`` with pool fan-out, in order.

        A task's own exception is re-raised here, in the caller.
        """
        items = list(items)
        if self.jobs == 1 or not items:
            return [fn(item) for item in items]
        with ProcessPoolExecutor(
            max_workers=min(self.jobs, len(items)), mp_context=_pool_context()
        ) as pool:
            return list(pool.map(fn, items))

    # -- the three sweep faces ---------------------------------------------
    def run_configs(self, configs: Sequence[Any]) -> list[Any]:
        """Execute :class:`~repro.api.config.RunConfig`\\ s -> ``RunReport``\\ s.

        Accepts configs or plain config dicts; children re-validate, so
        results are bit-identical to a serial ``for config: run(config)``
        loop in the same order.
        """
        payloads = [
            config if isinstance(config, dict) else config.to_dict()
            for config in configs
        ]
        return self.map(_task_run_config, payloads)

    def run_sched_policies(self, config: Any) -> dict[str, Any]:
        """One :class:`~repro.api.config.SchedConfig`, one task per policy.

        Returns ``policy -> SchedReport`` in configured policy order —
        the same mapping :func:`repro.sched.compare_policies` builds
        serially.
        """
        payload = config if isinstance(config, dict) else config.to_dict()
        tasks = [(payload, policy) for policy in payload.get("policies", ())]
        reports = self.map(_task_sched_policy, tasks)
        # Key by the report's canonical policy name — the same keys the
        # serial compare_policies() mapping uses.
        return {report.policy: report for report in reports}

    def run_experiments(
        self, entries: Sequence[tuple[str, str, bool]]
    ) -> list[tuple[str, str]]:
        """Run experiment harnesses, each with captured stdout.

        ``entries`` are ``(display_name, module_path, fast)`` triples;
        returns ``(display_name, captured_output)`` in entry order so the
        parent can print a deterministic transcript.
        """
        return self.map(_task_experiment, list(entries))


def _task_run_config(payload: dict) -> Any:
    """Pool task: one facade run."""
    from repro.api.config import RunConfig
    from repro.api.facade import run

    return run(RunConfig.from_dict(payload))


def _task_sched_policy(task: tuple[dict, str]) -> Any:
    """Pool task: one sched scenario under one placement policy.

    Only the config dict crosses the process boundary: a trace path or
    a fault plan resolves here, in the worker, so every policy replays
    the same queue and the same storm.
    """
    from repro.api.config import SchedConfig
    from repro.api.facade import run_sched_serial

    payload, policy = task
    data = dict(payload)
    data["policies"] = [policy]
    (report,) = run_sched_serial(SchedConfig.from_dict(data)).values()
    return report


def _task_experiment(entry: tuple[str, str, bool]) -> tuple[str, str]:
    """Pool task: one experiment harness with stdout captured."""
    import importlib

    name, module_path, fast = entry
    module = importlib.import_module(module_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if fast:
            module.main(fast=True)
        else:
            module.main()
    return (name, out.getvalue())


__all__ = ["ParallelSweeper"]
