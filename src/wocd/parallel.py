"""Row blocks of the sparse kernels, run on every CPU.

Each block is SciPy's public product of some consecutive rows of a CSR
matrix. Its compiled kernels release the interpreter lock, so threads that
each take blocks run on separate CPUs. A block computes each row over the
same entries in the same order as the whole product, so results are
bit-identical whatever the worker count.

One worker runs per CPU in the process's affinity mask (``taskset`` limits
it): the calling thread plus count - 1 threads started for each call and
joined before it returns, so no thread outlives a call.
"""

from __future__ import annotations

import os
import threading

import numpy as np


def cpu_count() -> int:
    """Workers a blocked call uses: the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    run inline; otherwise the caller and ``min(cpu_count(), blocks) - 1``
    threads started for this call take them in turn from one shared queue,
    and every thread is joined before this returns. The first exception a
    block raises is raised here once no block is running, and no block
    starts after it.
    """
    spans = list(zip(bounds[:-1], bounds[1:]))
    workers = min(cpu_count(), len(spans))
    if workers <= 1:
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

    threads = [threading.Thread(target=drain) for _ in range(workers - 1)]
    for thread in threads:
        thread.start()
    drain()
    for thread in threads:
        thread.join()
    if failed:
        raise failed[0]
