"""Parse, validate and (re-)serialize cluster traces.

Two on-disk layouts, both documented field-by-field in
``docs/traces.md``:

* **JSON-lines** (one file, ``*.jsonl``): each line is one record with a
  ``"type"`` discriminator — ``{"type": "job", ...}``, ``{"type":
  "task", ...}``, ``{"type": "instance", ...}``.
* **CSV directory** (PAI-style): ``job.csv`` + ``task.csv`` and an
  optional ``instance.csv``, empty cells meaning ``None``.

Every parse error raises :class:`~repro.sched.traces.records.TraceError`
with a ``file:line`` (or ``file:row``) prefix, so the CLI can fail with
one actionable line instead of a traceback.

:func:`trace_to_specs` carries every scheduling-relevant field into
:class:`~repro.sched.job.JobSpec` (the tests serialize the specs back
and get the same specs); the only fields it drops are the informational
ones (``user``, ``status``, instance rows).
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import pathlib
import sys
from typing import Any

from repro.sched.job import JobSpec, TrainPayload
from repro.sched.traces.records import (
    Trace,
    TraceError,
    TraceInstance,
    TraceJob,
    TraceTask,
)
from repro.utils.eventlog import parse_json

#: JSONL record-type discriminator -> record class.
RECORD_TYPES = {"job": TraceJob, "task": TraceTask, "instance": TraceInstance}

#: CSV file name per record kind (PAI-style directory layout).
CSV_FILES = {"job": "job.csv", "task": "task.csv", "instance": "instance.csv"}

_FIELDS = {
    kind: {f.name: f for f in dataclasses.fields(cls)}
    for kind, cls in RECORD_TYPES.items()
}

#: Fields parsed leniently from strings (CSV cells are all strings).
_FLOAT_FIELDS = {"submit_time", "deadline", "density", "start_time", "end_time"}
_INT_FIELDS = {
    "priority",
    "inst_num",
    "min_inst_num",
    "plan_gpu",
    "resolution",
    "local_batch",
    "iterations",
}
#: Most ``iterations`` a task may ask for.  The sample day's largest is
#: 19 655 and the synthetic generator's cap 50 000; a value near 10**18
#: would replay as a JCT of ~10**17 s and a bill of ~10**15 $.
MAX_ITERATIONS = 10**9
#: Largest per-GPU ``local_batch``: 256x the largest profile default
#: (256).  A batch of 10**15 replayed to a makespan of 4.1e13 s and a
#: bill of 1.5e11 $.
MAX_LOCAL_BATCH = 2**16
#: Latest ``submit_time``, seconds (~31 700 years).  Up to it the trace
#: clock resolves 0.12 ms; past ~1e16 an iteration's seconds no longer
#: move it at all, and a job submitted at 1e300 spun the replay to its
#: event cap and reported no job done.
MAX_SUBMIT_TIME = 10**12
#: The bounded fields and their bounds.
_MOST = {"iterations": MAX_ITERATIONS, "local_batch": MAX_LOCAL_BATCH, "submit_time": MAX_SUBMIT_TIME}
#: Fields where None is meaningful (empty CSV cell / JSON null).
_OPTIONAL_FIELDS = {
    "deadline",
    "plan_gpu",
    "resolution",
    "local_batch",
    "payload",
    "start_time",
    "end_time",
}


def _at_most(name: str, number: float) -> float:
    if number > _MOST.get(name, number):
        raise ValueError(f"must be at most {_MOST[name]}, got {number}")
    return number


def _coerce(kind: str, name: str, value: Any, where: str) -> Any:
    if value is None or value == "":
        if name in _OPTIONAL_FIELDS:
            return None
        raise TraceError(f"{where}: {kind} field {name!r} must not be empty")
    try:
        if name in _FLOAT_FIELDS:
            number = float(value)
            if not math.isfinite(number):
                raise ValueError(f"must be finite, got {value}")
            return _at_most(name, number)
        if name in _INT_FIELDS:
            if isinstance(value, float) and value != int(value):
                raise ValueError(f"not an integer: {value}")
            return _at_most(name, int(value))
    except (TypeError, ValueError, OverflowError) as exc:
        raise TraceError(f"{where}: {kind} field {name!r}: {exc}") from exc
    if name == "payload":
        if isinstance(value, str):  # CSV cell carrying JSON
            try:
                value = parse_json(value)
            except json.JSONDecodeError as exc:
                raise TraceError(f"{where}: payload is not valid JSON: {exc}") from exc
        if not isinstance(value, dict):
            raise TraceError(
                f"{where}: payload must be a mapping, got {type(value).__name__}"
            )
        return value
    return value


def _build_record(kind: str, data: dict, where: str):
    fields = _FIELDS[kind]
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise TraceError(
            f"{where}: unknown {kind} field(s) {', '.join(unknown)}; "
            f"accepted: {', '.join(fields)}"
        )
    if "job_name" not in data or not data["job_name"]:
        raise TraceError(f"{where}: {kind} record needs a non-empty job_name")
    kwargs = {k: _coerce(kind, k, v, where) for k, v in data.items()}
    return RECORD_TYPES[kind](**kwargs)


# ---------------------------------------------------------------------------
# Readers
# ---------------------------------------------------------------------------


def load_trace(path: str | pathlib.Path) -> Trace:
    """Load a trace from a ``.jsonl`` file or a PAI-style CSV directory.

    The returned trace is validated (:func:`validate_trace`): referential
    integrity and field ranges hold, but workload/scheme names are only
    resolved when converting to specs.
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise TraceError(f"trace not found: {path}")
    trace = _load_csv_dir(path) if path.is_dir() else _load_jsonl(path)
    validate_trace(trace, where=str(path))
    return trace


def _load_jsonl(path: pathlib.Path) -> Trace:
    trace = Trace()
    with path.open() as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{path}:{lineno}"
            try:
                data = parse_json(line)
            except json.JSONDecodeError as exc:
                raise TraceError(f"{where}: invalid JSON: {exc}") from exc
            if not isinstance(data, dict):
                raise TraceError(f"{where}: record must be a JSON object")
            kind = data.pop("type", None)
            if kind not in RECORD_TYPES:
                raise TraceError(
                    f"{where}: record 'type' must be one of "
                    f"{', '.join(RECORD_TYPES)}, got {kind!r}"
                )
            record = _build_record(kind, data, where)
            getattr(trace, kind + "s").append(record)
    return trace


def _load_csv_dir(path: pathlib.Path) -> Trace:
    trace = Trace()
    for kind, filename in CSV_FILES.items():
        file = path / filename
        if not file.exists():
            if kind == "instance":
                continue  # instance rows are optional
            raise TraceError(f"trace directory {path} is missing {filename}")
        with file.open(newline="") as handle:
            reader = csv.reader(handle)
            start = 1  # the header's line
            try:
                header = next(reader, [])
                expected = set(_FIELDS[kind])
                if not set(header) <= expected:
                    raise TraceError(
                        f"{file}: unknown column(s) "
                        f"{', '.join(sorted(set(header) - expected))}; "
                        f"accepted: {', '.join(sorted(expected))}"
                    )
                while True:
                    # A quoted cell may span lines and a blank line is no
                    # record, so a record starts on the line after the
                    # last one read, not on its row number.
                    start = reader.line_num + 1
                    cells = next(reader, None)
                    if cells is None:
                        break
                    if not cells:
                        continue
                    if len(cells) > len(header):
                        raise TraceError(
                            f"{file}:{start}: {len(cells)} cells for {len(header)} columns"
                        )
                    # A short row leaves its last fields empty.
                    row = dict(zip(header, cells + [None] * (len(header) - len(cells))))
                    record = _build_record(kind, row, f"{file}:{start}")
                    getattr(trace, kind + "s").append(record)
            except csv.Error as exc:
                # E.g. a cell over the csv module's field size limit
                # (128 KiB), which stays as it is: the limit is global.
                raise TraceError(f"{file}:{start}: {exc}") from exc
    return trace


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_trace(trace: Trace, *, where: str = "trace") -> Trace:
    """Referential and range checks; raises :class:`TraceError`."""
    if not trace.jobs:
        raise TraceError(f"{where}: no job records")
    names = [job.job_name for job in trace.jobs]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise TraceError(f"{where}: duplicate job_name(s): {', '.join(dupes)}")
    tasks_of: dict[str, int] = {}
    for task in trace.tasks:
        tasks_of[task.job_name] = tasks_of.get(task.job_name, 0) + 1
    known = set(names)
    for job_name in tasks_of:
        if job_name not in known:
            raise TraceError(f"{where}: task references unknown job {job_name!r}")
    missing = [n for n in names if n not in tasks_of]
    if missing:
        raise TraceError(
            f"{where}: job(s) without a task record: {', '.join(missing[:5])}"
        )
    multi = sorted(n for n, c in tasks_of.items() if c > 1)
    if multi:
        raise TraceError(
            f"{where}: job(s) with multiple task records: {', '.join(multi[:5])}"
        )
    for job in trace.jobs:
        if job.submit_time < 0:
            raise TraceError(
                f"{where}: job {job.job_name!r} has negative submit_time"
            )
        if job.deadline is not None and job.deadline <= 0:
            raise TraceError(f"{where}: job {job.job_name!r} deadline must be > 0")
    for task in trace.tasks:
        if task.plan_gpu is not None and (
            task.plan_gpu <= 0 or task.plan_gpu % 100 != 0
        ):
            raise TraceError(
                f"{where}: task of {task.job_name!r}: plan_gpu must be a "
                f"positive multiple of 100 (whole GPUs), got {task.plan_gpu}"
            )
        if task.min_inst_num < 1 or task.inst_num < task.min_inst_num:
            raise TraceError(
                f"{where}: task of {task.job_name!r}: need "
                f"1 <= min_inst_num <= inst_num, got "
                f"[{task.min_inst_num}, {task.inst_num}]"
            )
    for instance in trace.instances:
        if instance.job_name not in known:
            raise TraceError(
                f"{where}: instance references unknown job {instance.job_name!r}"
            )
    return trace


# ---------------------------------------------------------------------------
# Trace <-> JobSpec
# ---------------------------------------------------------------------------


def trace_to_specs(trace: Trace) -> list[JobSpec]:
    """Convert a validated trace into scheduler job specs.

    Spec construction resolves workload profiles and comm schemes, so a
    trace naming an unknown profile fails here with a
    :class:`TraceError` pointing at the offending job.
    """
    task_of = {task.job_name: task for task in trace.tasks}
    specs = []
    for job in trace.jobs:
        task = task_of.get(job.job_name)
        if task is None:  # load_trace validates; guard direct callers
            raise TraceError(f"job {job.job_name!r} has no task record")
        try:
            payload = (
                TrainPayload(**task.payload) if task.payload is not None else None
            )
            specs.append(
                JobSpec(
                    # Traces reuse job names (every generated day has the
                    # same ones); hold each name once, not once per trace.
                    name=sys.intern(job.job_name),
                    profile=job.workload,
                    scheme=job.scheme,
                    density=job.density,
                    resolution=task.resolution,
                    local_batch=task.local_batch,
                    iterations=task.iterations,
                    priority=job.priority,
                    deadline_seconds=job.deadline,
                    preference=job.preference,
                    min_nodes=task.min_inst_num,
                    max_nodes=task.inst_num,
                    gpus_per_node=(
                        task.plan_gpu // 100 if task.plan_gpu is not None else None
                    ),
                    arrival_seconds=job.submit_time,
                    payload=payload,
                )
            )
        except (TypeError, ValueError, KeyError) as exc:
            raise TraceError(f"job {job.job_name!r}: {exc}") from exc
    return specs


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------


def write_trace(trace: Trace, path: str | pathlib.Path) -> pathlib.Path:
    """Write the JSON-lines layout (jobs, then tasks, then instances)."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for kind in RECORD_TYPES:
            for record in getattr(trace, kind + "s"):
                data = {"type": kind, **dataclasses.asdict(record)}
                handle.write(json.dumps(data, sort_keys=True) + "\n")
    return path


def write_trace_csv(trace: Trace, directory: str | pathlib.Path) -> pathlib.Path:
    """Write the PAI-style CSV directory layout."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for kind, filename in CSV_FILES.items():
        records = getattr(trace, kind + "s")
        if kind == "instance" and not records:
            continue
        columns = list(_FIELDS[kind])
        with (directory / filename).open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(columns)
            for record in records:
                row = []
                for column in columns:
                    value = getattr(record, column)
                    if value is None:
                        row.append("")
                    elif column == "payload":
                        row.append(json.dumps(value, sort_keys=True))
                    else:
                        row.append(value)
                writer.writerow(row)
    return directory


# ---------------------------------------------------------------------------
# Stats (repro trace validate)
# ---------------------------------------------------------------------------


def trace_stats(trace: Trace) -> dict:
    """Summary counters for ``repro trace validate``."""
    submits = [job.submit_time for job in trace.jobs]
    priorities = sorted({job.priority for job in trace.jobs})
    gpus: dict[str, int] = {}
    payloads = 0
    for task in trace.tasks:
        label = "node" if task.plan_gpu is None else str(task.plan_gpu // 100)
        gpus[label] = gpus.get(label, 0) + 1
    payloads = sum(1 for task in trace.tasks if task.payload is not None)
    return {
        "jobs": len(trace.jobs),
        "tasks": len(trace.tasks),
        "instances": len(trace.instances),
        "users": len({job.user for job in trace.jobs}),
        "span_seconds": round(max(submits) - min(submits), 3) if submits else 0.0,
        "priorities": priorities,
        "gpus_per_node": dict(sorted(gpus.items())),
        "payload_jobs": payloads,
        "workloads": dict(
            sorted(
                (w, sum(1 for j in trace.jobs if j.workload == w))
                for w in {j.workload for j in trace.jobs}
            )
        ),
    }


__all__ = [
    "RECORD_TYPES",
    "CSV_FILES",
    "MAX_ITERATIONS",
    "MAX_LOCAL_BATCH",
    "MAX_SUBMIT_TIME",
    "load_trace",
    "validate_trace",
    "trace_to_specs",
    "write_trace",
    "write_trace_csv",
    "trace_stats",
]
