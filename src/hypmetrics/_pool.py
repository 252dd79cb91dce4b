"""The one process pool of the package.

One runner, ``_runner``, runs a module's tasks: the delta kernels' screen
and confirm passes and the sampler's batches (``delta``), the bands of a
matrix-file writer and the pieces of a matrix-file reader (``spaces``).
With more than one worker, the first pass of more than one task opens the
runner's one process pool; its forked processes receive the runner's
shared data once (the caller's matrices and their scaled copies, or a
matrix file's text), and every later pass submits to the same pool. A
pass deals its task list round-robin, ``tasks[w::p]`` over the pool's p
processes, and sends each process its share as one job, so a pass costs p
round trips, not one per task. A pass of one task, such as a confirm pass
that holds a single (chunk, j) or a matrix file below the band size, runs
in the calling process.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack, contextmanager

from .errors import InputError


def _worker_count(workers: int | None) -> int:
    """``None`` means one worker per core; anything below 1 is an error."""
    if workers is None:
        return os.cpu_count() or 1
    if workers < 1:
        raise InputError(f"need workers >= 1, got {workers}")
    return workers


_POOL_SHARED = None


def _pool_init(shared) -> None:
    global _POOL_SHARED
    _POOL_SHARED = shared


def _pool_call(job) -> list:
    fn, share = job
    return [fn(_POOL_SHARED, *task) for task in share]


@contextmanager
def _runner(shared, workers: int):
    """Yield ``run(fn, tasks)``, which gives ``fn(shared, *task)`` for every
    task, in task order; ``fn`` must be a module-level function.

    A call with one task, and every call when ``workers`` is 1, runs in the
    calling process. The first call with more tasks opens the one process
    pool, whose forked processes receive ``shared`` once, and every later
    call submits to it. The pool has one process per task of that call, up
    to ``workers``, since a forked pool starts all of its processes at the
    first submit. A call deals its tasks round-robin, ``tasks[w::p]`` over
    the pool's p processes, and sends each share as one job, so it costs at
    most p round trips."""
    with ExitStack() as stack:
        pool = size = None

        def run(fn, tasks: list[tuple]) -> list:
            nonlocal pool, size
            if pool is None and workers > 1 and len(tasks) > 1:
                size = min(workers, len(tasks))
                pool = stack.enter_context(ProcessPoolExecutor(
                    max_workers=size, initializer=_pool_init, initargs=(shared,)
                ))
            if pool is None or len(tasks) < 2:
                return [fn(shared, *task) for task in tasks]
            shares = [tasks[w::size] for w in range(min(size, len(tasks)))]
            out = [None] * len(tasks)
            for w, results in enumerate(pool.map(_pool_call, [(fn, share) for share in shares])):
                out[w::size] = results
            return out

        yield run
