"""Three independent computations, two of them in a forked child process.

``fork_join(first, middle, last)`` returns ``(first(), middle(), last())``
with the warnings and the error that this serial order gives: a child runs
first and last while this process runs middle.  It forks only where a child
can run beside this process (``can_fork``); otherwise it makes the three
calls here, in order.
"""

from __future__ import annotations

import os
import pickle
import threading
import warnings

from .errors import NCTransportError


def can_fork() -> bool:
    """os.fork exists, this process may run on two CPUs or more, and no
    other Python thread runs (a fork copies the calling thread only)."""
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
    )


def _in_child(first, last) -> bytes:
    """The pickled warnings and outcome of first() then last(): (None,
    [values]) or (the failed call's place in the serial order, its error).
    Warnings pass this process's filters and are kept, not shown."""
    shown = []
    warnings.showwarning = lambda *w: shown.append(w[:4])
    done = []
    try:
        done.append(first())
        done.append(last())
        outcome = (None, done)
    except Exception as exc:
        outcome = (2 * len(done), exc)
    try:
        return pickle.dumps((shown, outcome))
    except Exception as exc:
        msg = f"the checks' child process cannot send its result: {type(exc).__name__}: {exc}"
        return pickle.dumps((shown, (outcome[0] or 0, NCTransportError(msg))))


def fork_join(first, middle, last):
    """(first(), middle(), last()), with first and last in a forked child
    when ``can_fork()`` and a process can be started.  The child's warnings
    are shown here at the join and its error is raised here; of two errors,
    the one that comes first in serial order wins.  A child that ends
    without a readable result raises NCTransportError.  The pipe is read to
    its end and the child reaped whatever middle does."""
    if not can_fork():
        return first(), middle(), last()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare
        os.close(read_fd)
        os.close(write_fd)
        return first(), middle(), last()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(_in_child(first, last))
            code = 0
        finally:
            # never return into the caller, flush its buffers or print
            os._exit(code)
    os.close(write_fd)
    try:
        here = (None, middle())
    except Exception as exc:
        here = (1, exc)
    finally:
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
        status = os.waitpid(pid, 0)[1]
    if not data:
        code = os.waitstatus_to_exitcode(status)
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        raise NCTransportError(f"the checks' child process ended without a result ({how})")
    try:
        shown, there = pickle.loads(data)
    except Exception as exc:
        raise NCTransportError(
            f"the checks' child process sent a result that cannot be read: {type(exc).__name__}: {exc}"
        ) from None
    for w in shown:
        warnings.showwarning(*w)
    failed = [o for o in (there, here) if o[0] is not None]
    if failed:
        raise min(failed, key=lambda o: o[0])[1]
    return there[1][0], here[1], there[1][1]
