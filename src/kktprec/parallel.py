"""Independent jobs on every available core, with OpenBLAS held at one
thread per process.

The package's dense kernels are desk-scale, where a second OpenBLAS
thread mostly spins; a core is better spent on a second job. Importing
the package sets OPENBLAS_NUM_THREADS=1, so a process that imports it
before numpy loads OpenBLAS with one thread and starts no thread pool.
Processes that loaded numpy first (pytest, library callers) get the cap
here instead: the thread counts are set through ctypes on every OpenBLAS
library mapped into the process, looked up each time the cap is entered.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np
import scipy

T = TypeVar("T")
R = TypeVar("R")

# (setter, getter) of numpy's wheel build (64-bit integers), scipy's wheel
# build and a system build; each library exports one pair.
_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _openblas_controls() -> list[tuple[Callable[[int], None], Callable[[], int]]]:
    """(set, get) thread-count functions of each loaded OpenBLAS library;
    empty where the process's mappings cannot be read."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line})
    except OSError:
        return []
    controls = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for set_name, get_name in _THREAD_SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                set_threads, get_threads = getattr(lib, set_name), getattr(lib, get_name)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                controls.append((set_threads, get_threads))
                break
    return controls


def _built_on_openblas(module) -> bool:
    try:
        return "openblas" in module.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        return False


@contextmanager
def single_threaded_blas() -> Iterator[bool]:
    """Hold every loaded OpenBLAS library at one thread for the body.

    Yields whether the cap holds for both numpy's and scipy's BLAS (both
    are OpenBLAS builds and every library found reads one thread), and
    restores the previous thread counts on exit.
    """
    controls = _openblas_controls()
    previous = [get_threads() for _, get_threads in controls]
    try:
        for set_threads, _ in controls:
            set_threads(1)
        yield (
            bool(controls)
            and all(get_threads() == 1 for _, get_threads in controls)
            and _built_on_openblas(np)
            and _built_on_openblas(scipy)
        )
    finally:
        for (set_threads, _), count in zip(controls, previous):
            set_threads(count)


def map_in_order(fn: Callable[[T], R], jobs: Sequence[T]) -> list[R]:
    """[fn(job) for job in jobs] under single_threaded_blas.

    The jobs run in forked worker processes, one per available core, when
    the cap holds, the fork start method exists, and there is more than
    one core and more than one job; otherwise serially in this process.
    Without the cap, workers times BLAS threads oversubscribe the cores.
    Forked workers inherit the cap and the imported numpy and scipy, which
    spawned ones would import again. Forking is safe here: OpenBLAS stops
    its threads before a fork (its pthread_atfork handler), and the
    executor forks every worker before it starts its own thread. fn must
    be a module-level function.
    """
    # Imported here, not at module level: the subcommands that never start
    # a pool would pay for them in start-up time and memory.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with single_threaded_blas() as capped:
        workers = 1
        if capped and "fork" in multiprocessing.get_all_start_methods():
            workers = min(len(jobs), len(os.sched_getaffinity(0)))
        if workers < 2:
            return [fn(job) for job in jobs]
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            return list(pool.map(fn, jobs))
