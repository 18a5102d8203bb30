#!/usr/bin/env python3
"""Small-regularization convergence demo.

Runs the block-preconditioned MINRES solver against reduced-Hessian CG on
a denser instance (36x25 cells, 2000 observations, alpha = 1e-8) where
the contrast between the two is starkest, and prints both error
trajectories plus the three-versus-fifty iteration comparison.
"""

import argparse

from kktprec.config import ExperimentConfig
from kktprec.harness import run_convergence


def _fmt(v):
    return "-" if v is None else f"{v:.3e}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--out", default="results/convergence-demo")
    ap.add_argument("--maxit", type=int, default=150)
    ap.add_argument("--alpha", type=float, default=1e-8)
    args = ap.parse_args()

    cfg = ExperimentConfig(
        nx=(36,),
        ny=(25,),
        alpha=(args.alpha,),
        n_obs=(2000,),
        seed=1,
        preconditioners=("bdal-lumped-exact", "reduced-regularization"),
        tol=1e-10,
        maxit=args.maxit,
        out_dir=args.out,
    )
    bdal, cg = run_convergence(cfg)
    print(f"wrote {args.out}/convergence.csv")
    print("iter    bdal-lumped-exact    reduced-cg")
    for k in (0, 1, 2, 3, 5, 10, 20, 50, 100, args.maxit):
        eb = bdal.rel_param_error[k] if k < len(bdal.rel_param_error) else None
        ec = cg.rel_param_error[k] if k < len(cg.rel_param_error) else None
        if eb is None and ec is None:
            continue
        print(f"{k:4d}    {_fmt(eb):>17}    {_fmt(ec):>10}")
    e3 = bdal.rel_param_error[min(3, len(bdal.rel_param_error) - 1)]
    e50 = cg.rel_param_error[min(50, len(cg.rel_param_error) - 1)]
    print(f"block solver after 3 iterations: {e3:.3e}")
    print(f"reduced CG after 50 iterations:  {e50:.3e}")
    print(f"iterations to 1e-5: {bdal.iterations_to_target} (block), "
          f"{cg.iterations_to_target} (reduced CG)")


if __name__ == "__main__":
    main()
