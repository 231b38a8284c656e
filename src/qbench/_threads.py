"""Threads that end before their caller goes on: one call in the background
with a result slot, a row split over the cores this process may use, and a
call that runs once on whichever thread asks first.

numpy's ufuncs, BLAS ``matmul`` and ``hashlib`` release the GIL for most of
their run on large buffers, so work handed to these threads can run
alongside the caller. ``np.bincount`` (numpy 2.4.6) releases it for only
part of its run: two threads each running 60 per-row ``bincount``s did
1.20-1.40 times one thread's work, where float64 row sums did 1.63-2.08
times. Warm and back to back, two threads overlap such work; in short cold
runs on a 2-vCPU VM they did not, even for ``hashlib`` (README).
"""

from __future__ import annotations

import os
import threading
from contextlib import ExitStack

# the cores this process may run on; ``split_rows`` cuts its rows into this many parts
WIDTH = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class Background:
    """``fn(*args)`` on a thread of its own, started at construction.

    ``result()`` waits for the call and returns its value or raises its
    exception. Leaving a ``with`` block waits for the call, on every exit
    path, so no thread outlives the block.
    """

    def __init__(self, fn, *args):
        self._value = self._error = None
        self._thread = threading.Thread(target=self._run, args=(fn, args))
        self._thread.start()

    def _run(self, fn, args) -> None:
        try:
            self._value = fn(*args)
        except BaseException as exc:
            self._error = exc

    def result(self):
        self._thread.join()
        if self._error is not None:
            raise self._error
        return self._value

    def __enter__(self) -> "Background":
        return self

    def __exit__(self, *exc_info) -> None:
        self._thread.join()


def once(fn):
    """A callable that runs ``fn()`` on its first call, from whichever thread
    makes it, and returns at once on every later call, even while that first
    call is still running. ``fn``'s exception reaches only the thread that ran
    it. One non-blocking ``Lock.acquire`` decides the race; the lock is never
    released."""
    lock = threading.Lock()

    def call() -> None:
        if lock.acquire(blocking=False):
            fn()

    return call


def split_rows(fn, n_rows: int) -> None:
    """``fn(lo, hi)`` over contiguous ranges that cover ``range(n_rows)``,
    one range per core up to ``WIDTH``, the first inline. Every thread is
    joined before return; the first exception raised is raised here."""
    parts = max(1, min(WIDTH, n_rows))
    edges = [n_rows * k // parts for k in range(parts + 1)]
    with ExitStack() as stack:
        workers = [stack.enter_context(Background(fn, lo, hi)) for lo, hi in zip(edges[1:-1], edges[2:])]
        fn(edges[0], edges[1])
        for worker in workers:
            worker.result()
