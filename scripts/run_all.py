#!/usr/bin/env python3
"""Run the full benchmark set from the checked-in config files: spectral
bound verification, the solver comparison, the mesh study, the
(alpha, n_obs) sweep, and the mesh study at scale (58x40 to 232x160).
Extra arguments are passed through to every step, so e.g.
`run_all.py --set seed=7` reruns everything under another seed. Each
step's wall time is printed after it, and the total at the end."""

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

if __name__ == "__main__":
    total = 0.0
    for argv in STEPS:
        print("::", " ".join(argv), flush=True)
        start = time.perf_counter()
        code = main(argv + sys.argv[1:])
        elapsed = time.perf_counter() - start
        total += elapsed
        print(f":: {argv[0]}: {elapsed:.2f} s", flush=True)
        if code != 0:
            sys.exit(code)
    print(f":: total: {total:.2f} s", flush=True)
