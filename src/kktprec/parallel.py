"""Independent jobs on every available core, with OpenBLAS at one thread
per process.

The package's dense kernels are desk-scale, where a second OpenBLAS
thread mostly spins; a core is better spent on a second job. Importing
the package sets OPENBLAS_NUM_THREADS=1, so a process that imports it
before numpy loads OpenBLAS with one thread and starts no thread pool.
The package records whether that held. A process that loaded numpy
first (pytest, some library callers) keeps its BLAS threads, and its jobs
run serially.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence, TypeVar

import numpy as np
import scipy

from . import _ONE_BLAS_THREAD

T = TypeVar("T")
R = TypeVar("R")


def _built_on_openblas(module) -> bool:
    try:
        return "openblas" in module.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        return False


def map_in_order(fn: Callable[[T], R], jobs: Sequence[T]) -> list[R]:
    """[fn(job) for job in jobs], in forked worker processes, one per
    available core, when OpenBLAS loaded with one thread, numpy and scipy
    are both OpenBLAS builds, the fork start method exists, and there is
    more than one core and more than one job; otherwise serially in this
    process, since workers times BLAS threads would oversubscribe the
    cores. Forked workers inherit the one-thread OpenBLAS and the imported
    numpy and scipy, which spawned ones would import again. Forking is
    safe here: OpenBLAS stops its threads before a fork (its pthread_atfork
    handler), and the executor forks every worker before it starts its own
    thread. fn must be a module-level function.
    """
    # Imported here, not at module level: the subcommands that never start
    # a pool would pay for them in start-up time and memory.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = 1
    if (
        _ONE_BLAS_THREAD
        and _built_on_openblas(np)
        and _built_on_openblas(scipy)
        and "fork" in multiprocessing.get_all_start_methods()
    ):
        workers = min(len(jobs), len(os.sched_getaffinity(0)))
    if workers < 2:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(fn, jobs))
