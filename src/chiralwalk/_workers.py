"""Contiguous runs of a kernel's spans, one per thread, joined in run order.

evolve's ring kernels and scan_fronts' stacked eigensolve split their work
here.  Each caller says how many runs its work is worth, from its own size
gate, and map_runs makes no more runs than there are CPUs or spans.  The
threads are started and joined inside each call, so none outlives it.
"""

from __future__ import annotations

import os
import threading

# threads per call at most: the CPUs this process may run on
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def map_runs(kernel, spans, runs: int) -> list:
    """[kernel(run) for each run], over contiguous runs of the sequence spans, one run per thread.

    spans is cut into min(runs, WORKERS, len(spans)) contiguous slices of
    near-equal length.  With one run or fewer, kernel(spans) is called in
    the caller's thread, as the one run.  Otherwise the caller takes the
    first run and one new thread each of the others.  kernel must write
    only what its run names, so the output does not depend on the split;
    its return values come back in run order.  An exception from any run
    is raised in the caller once every thread has finished, the earliest
    run's first.
    """
    workers = min(runs, WORKERS, len(spans))
    if workers <= 1:
        return [kernel(spans)]
    parts = [spans[len(spans) * i // workers:len(spans) * (i + 1) // workers] for i in range(workers)]
    results, errors = [None] * workers, [None] * workers

    def work(i):
        try:
            results[i] = kernel(parts[i])
        except Exception as exc:  # raised in the caller below
            errors[i] = exc

    threads = [threading.Thread(target=work, args=(i,)) for i in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        results[0] = kernel(parts[0])
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results
