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
import pickle
import signal
from typing import Callable, NoReturn, Sequence, TypeVar

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


def _work(fn: Callable[[T], R], jobs: Sequence[T], indices: range, fd: int) -> NoReturn:
    """Body of a forked worker: fn(jobs[i]) for each i in indices, in order.
    Pickles (the list of (i, result), None), or (None, (i, exception)) for
    the first job that raises, to fd, and leaves by os._exit: no inherited
    stdio buffer is flushed a second time and no atexit handler runs."""
    code = 1
    try:
        done = []
        try:
            for index in indices:
                done.append((index, fn(jobs[index])))
            message = done, None
        except Exception as exc:
            message = None, (index, exc)
        data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)  # all or nothing reaches the pipe
        with open(fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def map_in_order(fn: Callable[[T], R], jobs: Sequence[T]) -> list[R]:
    """[fn(job) for job in jobs], in forked worker processes, one per
    available core, when OpenBLAS loaded with one thread, numpy and scipy
    are both OpenBLAS builds, os.fork exists, and there is more than one
    core and more than one job; otherwise serially in this process, since
    workers times BLAS threads would oversubscribe the cores. Forking is
    safe here: OpenBLAS stops its threads before a fork (its pthread_atfork
    handler), and this process starts no thread of its own.

    Worker w runs jobs[w::workers] in order. Workers inherit fn and the
    jobs through the fork, so neither is pickled and fn may be any
    callable; each result, and an exception a job raises, is pickled back
    over the worker's own pipe, so those must pickle. As serially, the
    exception of the lowest failing job index is raised. A worker that
    ends without a result (killed, out of memory) raises a RuntimeError
    naming it and its wait status. Every worker is reaped before this
    returns or raises.
    """
    workers = 1
    if _ONE_BLAS_THREAD and _built_on_openblas(np) and _built_on_openblas(scipy) and hasattr(os, "fork"):
        workers = min(len(jobs), len(os.sched_getaffinity(0)))
    if workers < 2:
        return [fn(job) for job in jobs]

    results: list = [None] * len(jobs)
    failures = []
    running = {}  # pid -> worker number, until reaped
    pipes = []  # read ends, in worker order
    try:
        for w in range(workers):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _work(fn, jobs, range(w, len(jobs), workers), write_end)
            finally:
                os.close(write_end)  # in this process only: _work never returns
            running[pid] = w
        for (pid, w), pipe in zip(list(running.items()), pipes):
            data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del running[pid]
            if not data:
                raise RuntimeError(
                    f"worker {w} of {workers} (pid {pid}) ended without a result: wait status {status}"
                )
            done, failure = pickle.loads(data)
            if failure is not None:
                failures.append(failure)
            else:
                for index, result in done:
                    results[index] = result
    finally:
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results
