#!/usr/bin/env python3
"""Run the full benchmark set from the checked-in config files: spectral
bound verification, the solver comparison, the mesh study, the
(alpha, n_obs) sweep, and the mesh study at scale (58x40 to 232x160).
Extra arguments are passed through to every step, so e.g.
`run_all.py --set seed=7` reruns everything under another seed. Each
step's wall time is printed after it, with its CPU time and the peak
resident memory so far, each of this process and its reaped children
(the verify-theory workers), and the total times at the end."""

import resource
import sys
import time

from kktprec.cli import main

STEPS = [
    ["verify-theory", "--config", "configs/theory.cfg"],
    ["convergence", "--config", "configs/benchmark.cfg"],
    ["mesh-study", "--config", "configs/mesh-study.cfg"],
    ["sweep", "--config", "configs/sweep.cfg"],
    ["mesh-study", "--config", "configs/scale.cfg"],
]


def cpu_s() -> float:
    """User plus system CPU seconds of this process and its reaped children."""
    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return sum(u.ru_utime + u.ru_stime for u in usage)


def peak_rss_mb(who: int) -> float:
    """High-water resident set size in MB; ru_maxrss is in KiB on Linux."""
    return resource.getrusage(who).ru_maxrss / 1024.0


if __name__ == "__main__":
    total = total_cpu = 0.0
    for argv in STEPS:
        print("::", " ".join(argv), flush=True)
        start, start_cpu = time.perf_counter(), cpu_s()
        code = main(argv + sys.argv[1:])
        elapsed, cpu = time.perf_counter() - start, cpu_s() - start_cpu
        total += elapsed
        total_cpu += cpu
        print(
            f":: {argv[0]}: {elapsed:.2f} s, CPU {cpu:.2f} s,"
            f" peak RSS {peak_rss_mb(resource.RUSAGE_SELF):.1f} MB"
            f" (children {peak_rss_mb(resource.RUSAGE_CHILDREN):.1f} MB)",
            flush=True,
        )
        if code != 0:
            sys.exit(code)
    print(f":: total: {total:.2f} s, CPU {total_cpu:.2f} s", flush=True)
