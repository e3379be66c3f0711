"""Benchmark-side span recording: no code under ``src/`` knows about it.

Spans are recorded around calls into each layer by proxies the
workloads inject through public constructor arguments and attributes
(:func:`traced`), and through the trainer's documented ``timer=`` hook
(:meth:`SpanRecorder.add`).  They are kept in memory — one tuple per
span — and only aggregated or written out after the timed region.

A layer's *self* time is its span minus the part its child spans cover;
whatever no span covers stays on the enclosing span and is reported as
unattributed rather than dropped.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class SpanRecorder:
    """In-memory spans: ``[name, start, end, parent index]``."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        record = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def add(self, phase: str, seconds: float) -> None:
        """The trainer's ``timer=`` protocol: a phase that just ended.

        The phase is reported after the fact, so spans recorded while it
        ran (model / compressor / optimizer proxies) are already in the
        list with the enclosing span as parent; adopt them.
        """
        end = time.perf_counter()
        start = end - seconds
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        for child in range(index - 1, -1, -1):
            span = self.spans[child]
            if span[2] <= start:  # ended before the phase began (or still open)
                break
            if span[3] == parent and start <= (span[1] + span[2]) / 2 <= end:
                span[3] = index
        self.spans.append([phase, start, end, parent])

    def totals(self) -> dict[str, dict]:
        """``name -> {"count", "total", "self"}`` (seconds)."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            row = out.setdefault(name, {"count": 0, "total": 0.0, "self": 0.0})
            row["count"] += 1
            row["total"] += end - start
            row["self"] += end - start - covered
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def dump(self) -> dict:
        """JSON-ready spans for ``--trace-out``."""
        return {
            "workload": self.workload,
            "columns": ["name", "start", "end", "parent"],
            "spans": self.spans,
        }


class _Traced:
    """Delegating proxy: named methods run inside a span, the rest pass
    through (so ``hasattr`` probes see exactly the wrapped object)."""

    def __init__(self, target, recorder: SpanRecorder, methods: dict[str, str]):
        self.__dict__["_target"] = target
        for method, span_name in methods.items():
            inner = getattr(target, method, None)
            if inner is not None:
                self.__dict__[method] = _spanned(inner, recorder, span_name)

    def __getattr__(self, name):
        return getattr(self._target, name)

    def __setattr__(self, name, value):
        setattr(self._target, name, value)


def _spanned(inner, recorder: SpanRecorder, span_name: str):
    def call(*args, **kwargs):
        with recorder.span(span_name):
            return inner(*args, **kwargs)

    return call


def merge_halves(untraced: dict, traced_half: dict) -> dict:
    """The result of a ``--trace 1`` run: end-to-end numbers from the
    untraced half, ops and checks of both (the traced ones prefixed)."""
    result = dict(untraced)
    result["attempted"] += traced_half["attempted"]
    result["failed"] += traced_half["failed"]
    result["checks"] = {
        **untraced["checks"],
        **{f"traced.{name}": check for name, check in traced_half["checks"].items()},
    }
    return result


def traced(target, recorder: SpanRecorder | None, methods: dict[str, str]):
    """``target`` with ``methods`` (method name -> span name) spanned;
    ``target`` itself when no recorder is active."""
    if recorder is None:
        return target
    return _Traced(target, recorder, methods)
