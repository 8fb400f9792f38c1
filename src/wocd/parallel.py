"""Row blocks of the sparse kernels, run on every CPU.

SciPy's compiled sparse kernels release the interpreter lock, so threads that
each take a disjoint block of output rows run on separate CPUs. Each row is
still computed by the same kernel over the same entries in the same order as
in one serial call, so results are bit-identical whatever the worker count.

One worker runs per CPU in the process's affinity mask (``taskset`` limits
it): the calling thread plus a pool of count - 1 threads, created on first use.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_pool = None  # (thread count, executor) once a call has needed threads
_pool_lock = threading.Lock()


def cpu_count() -> int:
    """Workers a blocked call uses: the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _forget_pool() -> None:
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


# a forked child inherits the pool but none of its threads, so a block handed
# to it would never run, and the lock as it was, perhaps held
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _executor(threads: int) -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != threads:
            if _pool is not None:
                _pool[1].shutdown(wait=False)
            _pool = (threads, ThreadPoolExecutor(threads, thread_name_prefix="wocd-rows"))
        return _pool[1]


def row_blocks(cum_work, budget: int) -> list:
    """Bounds 0 = r_0 < r_1 < ... < r_b = n of consecutive row blocks, each as
    long as its work ``cum_work[r_(i+1)] - cum_work[r_i]`` stays within
    ``budget``; a row over budget is a block of its own. ``cum_work`` is the
    non-decreasing running total of the rows' work, n + 1 long from 0, such
    as a CSR ``indptr``."""
    n = len(cum_work) - 1
    bounds = [0]
    while bounds[-1] < n:
        r0 = bounds[-1]
        r1 = int(np.searchsorted(cum_work, cum_work[r0] + budget, side="right")) - 1
        bounds.append(max(r1, r0 + 1))
    return bounds


def run_row_blocks(fn, bounds) -> None:
    """Call ``fn(r0, r1)`` once for every consecutive pair of ``bounds``.

    The blocks must write disjoint outputs. With one block or one CPU they
    run inline; otherwise the caller and the pool threads take them in turn
    from one shared queue. The first exception a block raises is raised here
    once no block is running, and no block starts after it.
    """
    spans = list(zip(bounds[:-1], bounds[1:]))
    cpus = cpu_count() if len(spans) > 1 else 1
    if cpus == 1:
        for r0, r1 in spans:
            fn(r0, r1)
        return
    todo, lock, failed = iter(spans), threading.Lock(), []

    def drain():
        while True:
            with lock:
                span = None if failed else next(todo, None)
            if span is None:
                return
            try:
                fn(*span)
            except BaseException as exc:  # handed to the caller, which raises it
                with lock:
                    failed.append(exc)

    pool = _executor(cpus - 1)
    tasks = [pool.submit(drain) for _ in range(min(cpus, len(spans)) - 1)]
    drain()
    for task in tasks:
        if not task.cancel():  # a task still queued has nothing left to do
            task.result()
    if failed:
        raise failed[0]
