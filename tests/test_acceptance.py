"""End-to-end acceptance checks for the toolkit.

Each test measures the quantities for one criterion, prints a single
summary line 'criterion N: PASS|FAIL (...)', then asserts. The printed
line survives in captured output either way, so a red run still reports
what was measured.
"""

import os

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from filter_model import (
    amgm_constants_exact,
    amgm_constants_from_filter,
    laplacian_source_model,
    stability_sigma_max,
)
from helpers import make_instance
from kktprec.cli import main
from kktprec.config import ExperimentConfig
from kktprec.fem import assemble_mass, assemble_stiffness_nitsche
from kktprec.harness import (
    generate_observations,
    run_convergence,
    run_mesh_study,
    run_reg_data_sweep,
    run_theory_verification,
)
from kktprec.formats import write_observations
from kktprec.kkt import (
    BDAL_LUMPED_EXACT,
    build_preconditioner,
    kkt_operator,
    reduced_hessian,
    reference_solution,
    regularization_prec_operator,
)
from kktprec.krylov import minres, pcg
from kktprec.mesh import build_mesh
from kktprec.rng import SplitMix64


def _report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_spectral_bounds_suite(tmp_path):
    # 2 meshes x 2 observation counts x 3 alphas = 12 instances; every
    # instance must satisfy all five proven bounds with 1e-8 slack (the
    # slack is baked into the verifier, which raises on any violation).
    cfg = ExperimentConfig(
        nx=(10, 20),
        ny=(7, 14),
        alpha=(1e-2, 1e-4, 1e-6),
        n_obs=(50, 200),
        seed=1,
        out_dir=str(tmp_path),
    )
    rows, all_ok = run_theory_verification(cfg)
    worst = max(r["report"].cond_e / r["report"].bound_cond for r in rows)
    ok = all_ok and len(rows) == 12 and all(r["pass"] for r in rows)
    _report(1, ok, f"{len(rows)} instances, worst cond(E)/bound = {worst:.3f}")
    assert len(rows) == 12
    assert all_ok, "a proven spectral bound failed on an assembled instance"


def test_criterion_2_filter_constant_domination():
    # Laplacian-style model sequences: closed-form constants computed from
    # (c_u = min_k(d_k^2 + alpha r_k^2), c_o = 1) must be no stronger than
    # the exact damped-projector constants, and with rho = sqrt(alpha),
    # alpha <= 1 the beta estimate obeys beta <= (1 + c_u)^(-1/2).
    law = lambda k: float(k)
    checked = 0
    worst_gap = 0.0
    for n_obs in (20, 100, 200):
        for alpha in (1.0, 1e-2, 1e-4, 1e-6):
            model = laplacian_source_model(200, n_obs, law, alpha=alpha)
            c_u = float(np.min(model.forward_sv**2 + alpha * model.reg_sv**2))
            closed = amgm_constants_from_filter(model, c_under=c_u, c_over=1.0)
            exact = amgm_constants_exact(model)
            assert exact.delta >= closed.delta - 1e-12
            assert exact.beta <= closed.beta + 1e-12
            assert closed.beta <= (1.0 + c_u) ** -0.5 + 1e-15
            worst_gap = max(worst_gap, closed.delta - exact.delta, exact.beta - closed.beta)
            checked += 1
    _report(2, True, f"{checked} model instances, worst domination gap = {worst_gap:.2e}")


def test_criterion_3_convergence_comparison(tmp_path):
    cfg = ExperimentConfig(
        nx=(29,),
        ny=(20,),
        alpha=(1e-6,),
        n_obs=(500,),
        seed=1,
        preconditioners=(BDAL_LUMPED_EXACT, "reduced-regularization"),
        tol=1e-10,
        maxit=200,
        target_error=1e-5,
        out_dir=str(tmp_path),
    )
    records = run_convergence(cfg)
    bdal, cg = records
    assert bdal.config_echo["kind"] == BDAL_LUMPED_EXACT
    iters = bdal.iterations_to_target
    err_bdal_3 = bdal.rel_param_error[min(3, len(bdal.rel_param_error) - 1)]
    err_cg_50 = cg.rel_param_error[min(50, len(cg.rel_param_error) - 1)]
    ok = iters is not None and iters <= 30 and err_bdal_3 < err_cg_50
    _report(
        3,
        ok,
        f"iters-to-1e-5 = {iters}, bdal err@3 = {err_bdal_3:.3e}, "
        f"cg-hess err@50 = {err_cg_50:.3e}",
    )
    assert iters is not None and iters <= 30, (
        f"block-preconditioned MINRES took {iters} iterations to reach 1e-5, "
        "expected at most 30 on this instance"
    )
    assert err_bdal_3 < err_cg_50, (
        f"error at iteration 3 ({err_bdal_3:.3e}) is not below the reduced-CG "
        f"error at iteration 50 ({err_cg_50:.3e})"
    )


def test_criterion_4_mesh_independence(tmp_path):
    obs_path = str(tmp_path / "observations-fixed.txt")
    write_observations(obs_path, generate_observations(1, 200, 1.45, 1.0))
    cfg = ExperimentConfig(
        nx=(10, 20, 40),
        ny=(7, 14, 28),
        alpha=(1e-6,),
        n_obs=(200,),
        obs_file=obs_path,
        preconditioners=(BDAL_LUMPED_EXACT,),
        tol=1e-10,
        maxit=200,
        target_error=1e-5,
        out_dir=str(tmp_path),
    )
    summary = run_mesh_study(cfg)
    counts = [row["iters-to-target"] for row in summary]
    ok = all(c is not None for c in counts) and max(counts) - min(counts) <= 2
    _report(4, ok, f"iterations across meshes = {counts}")
    assert all(c is not None for c in counts)
    assert max(counts) - min(counts) <= 2, (
        f"iteration counts {counts} spread by {max(counts) - min(counts)}, "
        "expected mesh-independent counts within 2"
    )


def test_criterion_5_data_scalability(tmp_path):
    cfg = ExperimentConfig(
        nx=(20,),
        ny=(14,),
        alpha=(1e-8,),
        n_obs=(100, 500),
        seed=1,
        preconditioners=(BDAL_LUMPED_EXACT,),
        tol=1e-10,
        maxit=250,
        target_error=1e-5,
        out_dir=str(tmp_path),
    )
    matrix = run_reg_data_sweep(cfg)
    small, large = int(matrix[0, 0]), int(matrix[0, 1])
    ok = small >= 0 and large >= 0 and large <= small
    _report(5, ok, f"iters-to-1e-5: n_obs=100 -> {small}, n_obs=500 -> {large}")
    assert small >= 0 and large >= 0
    assert large <= small, (
        f"more data should not slow convergence at small alpha: {large} > {small}"
    )


def test_criterion_6_stability_closed_form():
    gen = SplitMix64(6)
    worst = 0.0
    for _ in range(1000):
        a = 10.0 * (1.0 - gen.next_unit())
        b = 10.0 * (1.0 - gen.next_unit())
        c = 10.0 * (1.0 - gen.next_unit())
        off = (1.0 + b / a) / c
        psi = np.array([[1.0 / a, off], [off, (b / c**2) * (1.0 + b / a)]])
        ref = max(abs(np.linalg.eigvalsh(psi)))
        got = stability_sigma_max(a, b, c)
        worst = max(worst, abs(got - ref) / ref)
    ok = worst <= 1e-10
    _report(6, ok, f"1000 random triples, worst relative error = {worst:.2e}")
    assert worst <= 1e-10


def _poisson_l2_error(nx, ny, lx=1.45, ly=1.0):
    mesh = build_mesh(lx, ly, nx, ny)
    a = assemble_stiffness_nitsche(mesh)
    w = assemble_mass(mesh)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    u_star = np.sin(np.pi * x / lx) * np.sin(np.pi * y / ly)
    f = np.pi**2 * (1.0 / lx**2 + 1.0 / ly**2) * u_star
    u_h = spsolve(a, w @ f)
    e = u_h - u_star
    return float(np.sqrt(e @ (w @ e)))


def test_criterion_7_fem_convergence_rate():
    meshes = [(8, 6), (16, 12), (32, 24), (64, 48)]
    errors = [_poisson_l2_error(nx, ny) for nx, ny in meshes]
    rates = [np.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    ok = all(r >= 1.8 for r in rates)
    _report(7, ok, "rates = " + ", ".join(f"{r:.3f}" for r in rates))
    assert all(r >= 1.8 for r in rates), rates


def test_criterion_8_solver_equivalence():
    sys = make_instance(nx=6, ny=4, n_obs=30, alpha=1e-4, seed=1)
    n = sys.n
    q_dense = reference_solution(sys)[:n]

    prec = build_preconditioner(sys, BDAL_LUMPED_EXACT)
    rep_m = minres(
        kkt_operator(sys), prec.as_operator(), sys.rhs, tol=1e-12, maxit=2000
    )
    q_minres = rep_m.solution[:n]

    h = reduced_hessian(sys)
    rhs = sys.mass @ spsolve(sys.forward, sys.rhs[n : 2 * n])
    rep_c = pcg(h.as_operator(), regularization_prec_operator(h), rhs, tol=1e-12, maxit=2000)
    q_cg = rep_c.solution

    scale = np.linalg.norm(q_dense)
    d_mb = np.linalg.norm(q_minres - q_dense) / scale
    d_cb = np.linalg.norm(q_cg - q_dense) / scale
    d_mc = np.linalg.norm(q_minres - q_cg) / scale
    worst = max(d_mb, d_cb, d_mc)
    ok = worst <= 1e-6
    _report(8, ok, f"pairwise distances = {d_mb:.2e}, {d_cb:.2e}, {d_mc:.2e}")
    assert worst <= 1e-6


_REPRO_COMMANDS = [
    ["gen-obs", "--set", "n_obs = 9", "--seed", "5"],
    ["synth-source", "--set", "nx = 6", "--set", "ny = 5"],
    [
        "convergence",
        "--set", "nx = 4", "--set", "ny = 3", "--set", "alpha = 1e-2",
        "--set", "n_obs = 5", "--set", "preconditioners = bdal-lumped-exact",
        "--set", "maxit = 150", "--set", "snapshot_iters = 0, 2",
    ],
    [
        "mesh-study",
        "--set", "nx = 3, 5", "--set", "ny = 2, 4", "--set", "alpha = 1e-2",
        "--set", "n_obs = 6", "--set", "preconditioners = bdal-lumped-exact",
        "--set", "maxit = 200",
    ],
    [
        "sweep",
        "--set", "nx = 4", "--set", "ny = 3", "--set", "alpha = 1.0, 1e-2",
        "--set", "n_obs = 4, 6", "--set", "preconditioners = bdal-lumped-exact",
        "--set", "maxit = 200",
    ],
    [
        "verify-theory",
        "--set", "nx = 3", "--set", "ny = 2", "--set", "alpha = 1e-2",
        "--set", "n_obs = 4",
    ],
]


def _dir_bytes(d):
    return {
        name: open(os.path.join(d, name), "rb").read()
        for name in sorted(os.listdir(d))
    }


def test_criterion_9_reproducibility(tmp_path, capsys):
    compared = 0
    for i, argv in enumerate(_REPRO_COMMANDS):
        runs = []
        for tag in ("a", "b"):
            out = str(tmp_path / f"{i}{tag}")
            assert main(argv + ["--out", out]) == 0, argv
            runs.append(_dir_bytes(out))
        assert runs[0], f"no outputs written by {argv[0]}"
        assert runs[0].keys() == runs[1].keys()
        for name in runs[0]:
            assert runs[0][name] == runs[1][name], f"{argv[0]}: {name} differs"
        compared += len(runs[0])
    capsys.readouterr()  # drop subcommand chatter; the summary line follows
    _report(9, True, f"{compared} files byte-identical across reruns of 6 subcommands")
