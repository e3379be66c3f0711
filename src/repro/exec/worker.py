"""The pool worker: the loop running inside every child process.

Each task is a call: an arbitrary module-level function (one fully
independent ``RunConfig`` / sched policy / experiment per task) whose
result is pickled back.  The module imports nothing beyond the standard
library, so it is import-clean for the ``spawn`` start method; the
function arrives by unpickling, by import path.
"""

from __future__ import annotations

import traceback
from typing import Any

#: Message kinds of the parent -> worker protocol.
CALL, STOP = "call", "stop"


def worker_main(conn) -> None:
    """The child-process service loop: handle messages until ``stop``.

    Every request gets exactly one ``("ok", payload)`` or
    ``("error", traceback)`` reply, so the parent can pair requests and
    replies without sequence numbers.
    """
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
                if kind != CALL:
                    raise ValueError(f"unknown worker message kind {kind!r}")
                _, fn, args = message
                reply: Any = fn(*args)
                conn.send(("ok", reply))
            except BaseException:
                conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


__all__ = ["worker_main", "CALL", "STOP"]
