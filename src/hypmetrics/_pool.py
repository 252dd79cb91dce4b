"""The one fork-join runner of the package, and the one rule that sizes it.

One call, ``_run``, runs a pass of a module's tasks: the delta kernels'
screen and confirm passes and the sampler's batches (``delta``), the bands
of a matrix-file writer and the pieces of a matrix-file reader
(``spaces``).
A pass of more than one task on p > 1 processes forks p children, child w
with the one share ``tasks[w::p]``, which it computes from the memory it
inherited: the pass's shared data (the caller's matrices and their
scaled copies, or a matrix file's text) is never sent. Each child writes
one pickled message, its results or its exception and that exception's
traceback text, to a pipe of its own and exits. The caller runs no share:
it reads the pipes in share order, re-raises a child's exception with the
text as its ``__cause__``, and reaps every child before the pass
returns or raises, first killing those still running when it raises.
Every pass forks afresh, so no process outlives the pass that forked it.
A pass of one task, a pass on one process, and every pass where the
platform has no ``os.fork`` run in the calling process.

``_processes`` is the one rule by which every caller sizes a pass: a
process per ``unit`` of work, up to the worker count and the task count,
and at least one. A pass costs a few milliseconds per child (the fork,
the child's first writes to the pages it shares with the caller, the
pipe and the reap), so a pass with less work than that runs in the
caller whatever the worker count: a worker count is an upper bound, which
the input size can lower.
"""

from __future__ import annotations

import os
import pickle
import signal
import traceback


class _ChildTraceback(Exception):
    """The text of a forked child's traceback."""


def _processes(workers: int, tasks: int, work: int, unit: int) -> int:
    """Processes for a pass of ``tasks`` tasks and ``work`` in all: one per
    ``unit`` of work, at most ``workers`` and ``tasks``, and at least one."""
    return max(1, min(workers, tasks, work // unit))


def _send(fn, shared, share: list[tuple], out: int, pipes: list, mask) -> None:
    """The body of a forked child; never returns. Restore the signal mask
    ``mask``, close the caller's read ends ``pipes``, write
    ``(True, results, None)``, the list of ``fn(shared, *task)`` over the
    ``share``, or ``(False, exception, its traceback's text)``, pickled, to
    the pipe ``out``, and exit. An exception that does not come back out of
    a pickle is sent as a RuntimeError with its repr."""
    code = 1
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for pipe in pipes:
            pipe.close()
        try:
            message = (True, [fn(shared, *task) for task in share], None)
        except BaseException as exc:  # sent to the caller, which raises it
            message = (False, exc, traceback.format_exc())
        try:
            data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
            if not message[0]:
                pickle.loads(data)
        except Exception as exc:
            error = RuntimeError(f"{message[1]!r} cannot be sent: {exc!r}")
            data = pickle.dumps((False, error, message[2] or traceback.format_exc()))
        with open(out, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _spawn(fn, shared, share: list[tuple], pipes: list) -> int:
    """Fork a child that sends the results of ``share`` (``_send``), append
    the read end of its pipe to ``pipes``, and return its pid."""
    read, write = os.pipe()
    try:
        pipes.append(open(read, "rb"))
        # A Ctrl-C waits until the child is inside _send, which always exits:
        # raised any earlier, it would unwind the caller's stack in the child.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
        try:
            pid = os.fork()
            if pid == 0:
                _send(fn, shared, share, write, pipes, mask)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        return pid
    finally:
        os.close(write)


def _join(fn, shared, tasks: list[tuple], p: int) -> list:
    """``fn(shared, *task)`` of every task, in task order, from p forked
    children, child w computing ``tasks[w::p]``."""
    out = [None] * len(tasks)
    pids, pipes = [], []
    joined = False
    try:
        for w in range(p):
            pids.append(_spawn(fn, shared, tasks[w::p], pipes))
        for w, pipe in enumerate(pipes):
            try:
                ok, value, text = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                code = os.waitstatus_to_exitcode(os.waitpid(pids[w], 0)[1])
                pids[w] = None
                how = f"exit code {code}" if code >= 0 else f"signal {-code}"
                raise RuntimeError(
                    f"worker process of share {w + 1} of {p} ended ({how}) without "
                    "sending its results"
                ) from None
            if not ok:
                raise value from _ChildTraceback(f'\n"""\n{text}"""')
            out[w::p] = value
        joined = True
        return out
    finally:
        for pipe in pipes:
            pipe.close()
        live = [pid for pid in pids if pid is not None]
        if not joined:
            for pid in live:
                os.kill(pid, signal.SIGKILL)
        for pid in live:
            os.waitpid(pid, 0)


def _run(fn, shared, tasks: list[tuple], processes: int) -> list:
    """``fn(shared, *task)`` for every task, in task order, each result
    pickled back from one of p = min(processes, len(tasks)) forked children
    (``_join``), or computed in the calling process when p < 2 or the
    platform has no ``os.fork``."""
    p = min(processes, len(tasks)) if hasattr(os, "fork") else 1
    if p < 2:
        return [fn(shared, *task) for task in tasks]
    return _join(fn, shared, tasks, p)
