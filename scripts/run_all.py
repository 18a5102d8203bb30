#!/usr/bin/env python3
"""Run the full benchmark set from the checked-in config files: spectral
bound verification, the solver comparison, the mesh study, the
(alpha, n_obs) sweep, and the mesh study at scale (58x40 to 232x160).
Extra arguments are passed through to every step, so e.g.
`run_all.py --set seed=7` reruns everything under another seed. Each
step's wall time is printed after it, with the peak resident memory so
far of this process and of its reaped children (the verify-theory
workers), and the total time at the end."""

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


def peak_rss_mb(who: int) -> float:
    """High-water resident set size in MB; ru_maxrss is in KiB on Linux."""
    return resource.getrusage(who).ru_maxrss / 1024.0


if __name__ == "__main__":
    total = 0.0
    for argv in STEPS:
        print("::", " ".join(argv), flush=True)
        start = time.perf_counter()
        code = main(argv + sys.argv[1:])
        elapsed = time.perf_counter() - start
        total += elapsed
        print(
            f":: {argv[0]}: {elapsed:.2f} s, peak RSS {peak_rss_mb(resource.RUSAGE_SELF):.1f} MB"
            f" (children {peak_rss_mb(resource.RUSAGE_CHILDREN):.1f} MB)",
            flush=True,
        )
        if code != 0:
            sys.exit(code)
    print(f":: total: {total:.2f} s", flush=True)
