"""One traced pass of a workload, run in its own process.

It makes the same public calls as the program's CLI, in the same order,
each inside a span. minres and pcg receive wrapped operators, so that every
K, P^-1 and reduced-Hessian apply is a child span of the Krylov span. The
pass also solves each assembled KKT matrix with scipy's sparse direct
solver and checks the program's reference q against it. Spans, counters and
the operation outcome are written to <out>/trace.json at the end.

    PYTHONPATH=src python3 perfbench/traced.py --workload sweep \
        --config configs/sweep.cfg --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import tracemalloc

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from kktprec.config import load_config
from kktprec.formats import read_observations, write_observations
from kktprec.harness import generate_observations, source_field
from kktprec.kkt import (
    REDUCED_REGULARIZATION,
    assemble_problem,
    build_kkt,
    build_preconditioner,
    kkt_operator,
    reduced_hessian,
    reference_solution,
    regularization_prec_operator,
    synthesize_data,
)
from kktprec.krylov import LinearOperator, minres, pcg
from kktprec.mesh import build_mesh
from kktprec.spectral import TheoryViolationError, verify_spectral_bounds

from tracing import Tracer
from workloads import Outcome

# Agreement required between the program's dense reference q and the sparse
# direct solve of the same assembled matrix.
REFERENCE_RTOL = 1e-8


def _csr(m) -> sp.csr_matrix:
    rows = len(m.indptr) - 1
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=(rows, rows))


def kkt_apply_bytes(sys) -> int:
    """Bytes one K apply moves: the CSR arrays of its six block products,
    plus one read of x and one write of y per product."""
    blocks = (sys.reg, sys.mass, sys.btb, sys.forward, sys.mass, sys.forward)
    return sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes + 16 * sys.n for m in blocks)


def check_reference(sys, q_ref: np.ndarray, outcome: Outcome, label: str) -> None:
    w, a = _csr(sys.mass), _csr(sys.forward)
    k = sp.bmat(
        [[sys.alpha * _csr(sys.reg), None, -w], [None, _csr(sys.btb), a], [-w, a, None]],
        format="csc",
    )
    q = spsolve(k, sys.rhs)[: sys.n]
    err = float(np.linalg.norm(q_ref - q) / np.linalg.norm(q))
    outcome.attempted += 1
    if not err <= REFERENCE_RTOL:
        outcome.failures.append(f"{label}: reference q differs from spsolve by {err:.3e}")


def write_obs(cfg, n_obs: int, out: str, tr: Tracer) -> str:
    path = os.path.join(out, f"observations-n{n_obs}.txt")
    obs = generate_observations(cfg.seed, n_obs, cfg.lx, cfg.ly)
    with tr.span("formats.obs_io"):
        write_observations(path, obs)
    return path


def assemble(cfg, nx: int, ny: int, obs_path: str, tr: Tracer):
    with tr.span("fem.assemble"):
        mesh = build_mesh(cfg.lx, cfg.ly, nx, ny)
    with tr.span("formats.obs_io"):
        obs = read_observations(obs_path, cfg.lx, cfg.ly)
    with tr.span("fem.assemble"):
        ops = assemble_problem(mesh, obs, t=cfg.reg_shift, gamma0=cfg.nitsche_gamma)
    return mesh, ops


def instance(cfg, nx: int, ny: int, alpha: float, obs_path: str, tr: Tracer, outcome: Outcome):
    """Assemble, synthesize data, build K and solve the reference, as the
    program does before its solves."""
    mesh, ops = assemble(cfg, nx, ny, obs_path, tr)
    q_true = source_field(cfg, mesh).values
    with tr.span("kkt.synthesize"):
        y = synthesize_data(ops, q_true)
    with tr.span("kkt.build_kkt"):
        sys = build_kkt(ops, alpha, y)
    with tr.span("kkt.reference"):
        tracemalloc.start()
        q_ref = reference_solution(sys)[: sys.n]
        tr.count("kkt.reference_alloc_mb", tracemalloc.get_traced_memory()[1] / 1e6)
        tracemalloc.stop()
    with tr.span("gate.spsolve"):
        check_reference(sys, q_ref, outcome, tr.run_id)
    return sys, y, q_ref


def solve(cfg, sys, y: np.ndarray, kind: str, q_ref: np.ndarray, tr: Tracer, outcome: Outcome) -> None:
    n, dim = sys.n, sys.dim
    label = f"{kind} {tr.run_id}"
    outcome.attempted += 1
    try:
        if kind == REDUCED_REGULARIZATION:
            with tr.span(f"kkt.prec_build.{kind}"):
                h = reduced_hessian(sys)
                rhs = h.rhs(y, sys.ops.observation)
                reg_prec = regularization_prec_operator(h)
            with tr.span("krylov.pcg"):
                report = pcg(
                    LinearOperator(n, n, tr.wrap("kkt.hessian_apply", h.as_operator())),
                    LinearOperator(n, n, tr.wrap("kkt.reg_prec_apply", reg_prec)),
                    rhs,
                    tol=cfg.tol,
                    maxit=cfg.maxit,
                    reference=q_ref,
                )
            tr.count("krylov.pcg_iters", report.iterations)
        else:
            with tr.span(f"kkt.prec_build.{kind}"):
                prec = build_preconditioner(sys, kind, rho=cfg.rho_for(sys.alpha), inner_tol=cfg.inner_tol)
            k_apply = tr.wrap("kkt.kkt_apply", kkt_operator(sys))
            applies_before = len(tr.spans)
            with tr.span(f"krylov.minres.{kind}"):
                report = minres(
                    LinearOperator(dim, dim, k_apply),
                    LinearOperator(dim, dim, tr.wrap(f"kkt.prec_apply.{kind}", prec.as_operator())),
                    sys.rhs,
                    tol=cfg.tol,
                    maxit=cfg.maxit,
                    reference=q_ref,
                    select=lambda x: x[:n],
                )
            k_calls = sum(s.name == "kkt.kkt_apply" for s in tr.spans[applies_before:])
            tr.count(f"krylov.minres_iters.{kind}", report.iterations)
            tr.count("kkt.kkt_apply_bytes", k_calls * kkt_apply_bytes(sys))
    except Exception as exc:  # noqa: BLE001 - a failed solve is counted and the pass goes on
        outcome.failures.append(f"{label}: {type(exc).__name__}: {exc}")
        return
    final_error = float(report.error_history[-1])
    if not report.converged:
        outcome.failures.append(f"{label}: not converged in {report.iterations} iterations")
    elif not final_error <= cfg.target_error:
        outcome.failures.append(f"{label}: final rel-param-error {final_error:.3e} > {cfg.target_error:g}")


def run_ladder(cfg, out: str, tr: Tracer, outcome: Outcome) -> None:
    alpha, n_obs = cfg.alpha[0], cfg.n_obs[0]
    obs_path = write_obs(cfg, n_obs, out, tr)
    for nx, ny in zip(cfg.nx, cfg.ny):
        tr.run_id = f"{nx}x{ny}/alpha={alpha:g}/obs={n_obs}"
        sys, y, q_ref = instance(cfg, nx, ny, alpha, obs_path, tr, outcome)
        for kind in cfg.preconditioners:
            solve(cfg, sys, y, kind, q_ref, tr, outcome)


def run_sweep(cfg, out: str, tr: Tracer, outcome: Outcome) -> None:
    nx, ny, kind = cfg.nx[0], cfg.ny[0], cfg.preconditioners[0]
    for n_obs in cfg.n_obs:
        tr.run_id = f"{nx}x{ny}/obs={n_obs}"
        obs_path = write_obs(cfg, n_obs, out, tr)
        for alpha in cfg.alpha:
            tr.run_id = f"{nx}x{ny}/alpha={alpha:g}/obs={n_obs}"
            sys, y, q_ref = instance(cfg, nx, ny, alpha, obs_path, tr, outcome)
            solve(cfg, sys, y, kind, q_ref, tr, outcome)


def run_theory(cfg, out: str, tr: Tracer, outcome: Outcome) -> None:
    for nx, ny in zip(cfg.nx, cfg.ny):
        for n_obs in cfg.n_obs:
            tr.run_id = f"{nx}x{ny}/obs={n_obs}"
            obs_path = write_obs(cfg, n_obs, out, tr)
            for alpha in cfg.alpha:
                tr.run_id = f"{nx}x{ny}/alpha={alpha:g}/obs={n_obs}"
                _, ops = assemble(cfg, nx, ny, obs_path, tr)
                with tr.span("kkt.build_kkt"):
                    sys = build_kkt(ops, alpha, np.zeros(n_obs))
                with tr.span("kkt.prec_build.bdal-exact"):
                    prec = build_preconditioner(sys, "bdal-exact", rho=cfg.rho_for(alpha))
                outcome.attempted += 1
                try:
                    with tr.span("spectral.verify"):
                        verify_spectral_bounds(sys, prec)
                except TheoryViolationError as exc:
                    outcome.failures.append(f"{tr.run_id}: {exc}")


RUNNERS = {"ladder": run_ladder, "sweep": run_sweep, "verify-theory": run_theory}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(RUNNERS), required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    cfg = load_config(args.config, seed=args.seed, out_dir=args.out)
    os.makedirs(args.out, exist_ok=True)

    tr = Tracer()
    outcome = Outcome(attempted=0)
    tr.run_id = args.workload
    with tr.span("harness"):
        RUNNERS[args.workload](cfg, args.out, tr, outcome)
    payload = tr.to_json()
    payload.update(attempted=outcome.attempted, failures=outcome.failures)
    with open(os.path.join(args.out, "trace.json"), "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


if __name__ == "__main__":
    main()
