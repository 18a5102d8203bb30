#!/usr/bin/env python3
"""Run every checked-in config into its `out_dir` under results/: bound
verification, the solver comparison, the mesh study, the (alpha, n_obs)
sweep, the mesh study at scale (58x40 to 232x160) and the convergence
demo (36x25, 2000 observations, alpha 1e-8). Extra arguments go to every
step, so `run_all.py --set seed=7` reruns everything under another seed.
After each step it prints the step's wall and CPU time and the peak
resident memory so far of this process and of its reaped children (the
verify-theory workers); at the end, the total times."""

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
    ["convergence", "--config", "configs/convergence-demo.cfg"],
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
