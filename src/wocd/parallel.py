"""Row blocks of the sparse kernels and the dense stages, run on every CPU.

A sparse block is SciPy's public product of some consecutive rows of a CSR
matrix. A dense block is a stage of the model's NumPy arithmetic on some
consecutive rows, written into those rows of arrays its caller allocated.
Compiled kernels release the interpreter lock, so threads that each take
blocks run on separate CPUs. Block bounds never depend on the worker count,
so results are bit-identical whatever it is. A sparse block computes each
row over the same entries in the same order as the whole product, so it
also equals the whole product. A dense block equals the same rows of the
whole product only where BLAS takes the same kernel for both;
``wocd.model.dense_blocks`` cuts blocks for which that held on OpenBLAS
0.3.31 (x86-64), and another BLAS build may differ in the last bits.

A call over b blocks has min(cpu_count(), b) workers, at most one per CPU in
the process's affinity mask (``taskset`` limits it): the calling thread plus
threads started for the call and joined before it returns, so no thread
outlives a call. With one worker, or one block, no thread starts. The clique
scan and the dense stages keep their blocks then, as they bound memory and
fix the bits; a product of P is SciPy's whole one.
"""

from __future__ import annotations

import os
import threading

import numpy as np


def cpu_count() -> int:
    """The CPUs this process may run on, each a worker of a blocked call."""
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

    The blocks must write disjoint outputs. The caller and
    ``min(cpu_count(), blocks) - 1`` threads started for this call take them
    in turn from one shared queue, and every thread is joined before this
    returns. The first exception a block raises is raised here once no block
    is running, and no block starts after it.
    """
    todo, lock, failed = zip(bounds[:-1], bounds[1:]), threading.Lock(), []

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

    workers = min(cpu_count(), len(bounds) - 1)
    threads = [threading.Thread(target=drain) for _ in range(workers - 1)]
    for thread in threads:
        thread.start()
    drain()
    for thread in threads:
        thread.join()
    if failed:
        raise failed[0]
