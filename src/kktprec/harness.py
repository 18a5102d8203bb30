"""Experiment drivers: observation generation, synthetic sources, and the
convergence / mesh / sweep / theory studies with CSV and PGM artifacts.

Reproducibility contract: every artifact is a deterministic function of
(config, seed, observation file). Wall-clock timing is therefore opt-in
(config key timing); with it off, the wall-s column is written as zero and
reruns are byte-identical.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from .config import ExperimentConfig
from .fem import interpolate_image
from .formats import (
    read_observations,
    read_pgm,
    write_field_pgm,
    write_observations,
    atomic_write_text,
)
from .kkt import (
    BDAL_KINDS,
    REDUCED_REGULARIZATION,
    KktSystem,
    ProblemOperators,
    assemble_problem,
    build_kkt,
    build_preconditioner,
    kkt_operator,
    reduced_hessian,
    reference_solution,
    regularization_prec_operator,
    synthesize_data,
)
from .krylov import minres, pcg
from .mesh import NodalField, ObservationSet, TriMesh, build_mesh
from .rng import SplitMix64
from .spectral import ConditionReport, TheoryViolationError, verify_spectral_bounds

CSV_COLUMNS = ("run-id", "iteration", "rel-param-error", "precond-residual", "wall-s")

_BOUNDARY_MARGIN = 1e-9

SYNTH_SOURCE_FORMULA = (
    "min(1, plateau + 0.9*exp(-((x/lx-0.7)^2 + (y/ly-0.3)^2) / (2*0.12^2))) "
    "with plateau = 1 on [0.15,0.45]x[0.55,0.85] in relative coordinates"
)


def generate_observations(seed: int, n_obs: int, lx: float, ly: float) -> ObservationSet:
    """n_obs points uniform over the open rectangle, from a SplitMix64 stream.

    Coordinates are next_u64 / 2^64 scaled by the extent, x before y; a
    point with any coordinate within 1e-9 of the boundary (relative to the
    extent) is redrawn whole.
    """
    if n_obs < 1:
        raise ValueError("need at least one observation point")
    gen = SplitMix64(seed)
    points = np.empty((n_obs, 2))
    margin_x = _BOUNDARY_MARGIN * lx
    margin_y = _BOUNDARY_MARGIN * ly
    count = 0
    while count < n_obs:
        x = gen.next_unit() * lx
        y = gen.next_unit() * ly
        if x < margin_x or x > lx - margin_x or y < margin_y or y > ly - margin_y:
            continue
        points[count] = (x, y)
        count += 1
    return ObservationSet(points=points, lx=lx, ly=ly)


def synth_source(mesh: TriMesh) -> NodalField:
    """Deterministic test source in [0, 1]: a rectangular plateau plus an
    off-center Gaussian bump (see SYNTH_SOURCE_FORMULA)."""
    xr = mesh.vertices[:, 0] / mesh.lx
    yr = mesh.vertices[:, 1] / mesh.ly
    plateau = ((xr >= 0.15) & (xr <= 0.45) & (yr >= 0.55) & (yr <= 0.85)).astype(float)
    bump = 0.9 * np.exp(-((xr - 0.7) ** 2 + (yr - 0.3) ** 2) / (2.0 * 0.12**2))
    return NodalField(mesh=mesh, values=np.minimum(1.0, plateau + bump))


@dataclass
class IterationRow:
    iteration: int
    rel_param_error: float
    precond_residual: float
    wall_s: float


@dataclass
class RunRecord:
    """One solver run: config echo, per-iteration rows, and the first
    iteration at which the relative parameter error fell below the target."""

    run_id: str
    config_echo: dict
    rows: list[IterationRow] = field(default_factory=list)
    iterations_to_target: int | None = None
    converged: bool = False


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_run_csv(path: str, records: list[RunRecord]) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        for row in rec.rows:
            lines.append(
                f"{rec.run_id},{row.iteration},{_fmt(row.rel_param_error)},"
                f"{_fmt(row.precond_residual)},{_fmt(row.wall_s)}"
            )
    atomic_write_text(path, "\n".join(lines) + "\n")


def _first_below(errors: np.ndarray, target: float) -> int | None:
    hits = np.nonzero(errors < target)[0]
    return int(hits[0]) if hits.size else None


class _Stopwatch:
    """Per-iteration cumulative wall time; frozen at zero when disabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.marks: list[float] = []
        self._start = time.perf_counter() if enabled else 0.0

    def mark(self):
        self.marks.append(time.perf_counter() - self._start if self.enabled else 0.0)


def _obs_source(cfg: ExperimentConfig, n_obs: int, out_dir: str, tag: str = "") -> str:
    """Write (or copy through) the observation file before any solve; return
    its path. All solves re-read from disk."""
    name = f"observations{tag}-n{n_obs}.txt"
    path = os.path.join(out_dir, name)
    if cfg.obs_file is not None:
        obs = read_observations(cfg.obs_file, cfg.lx, cfg.ly)
        if obs.n_obs != n_obs:
            raise ValueError(
                f"observation file holds {obs.n_obs} points but config wants {n_obs}"
            )
    else:
        obs = generate_observations(cfg.seed, n_obs, cfg.lx, cfg.ly)
    write_observations(path, obs)
    return path


def source_field(cfg: ExperimentConfig, mesh: TriMesh) -> NodalField:
    if cfg.source == "synthetic":
        return synth_source(mesh)
    return interpolate_image(mesh, read_pgm(cfg.source), low=0.0, high=1.0)


def _assemble_instance(
    cfg: ExperimentConfig, nx: int, ny: int, alpha: float, obs_path: str
) -> tuple[ProblemOperators, KktSystem, np.ndarray]:
    mesh = build_mesh(cfg.lx, cfg.ly, nx, ny)
    obs = read_observations(obs_path, cfg.lx, cfg.ly)
    ops = assemble_problem(mesh, obs, t=cfg.reg_shift, gamma0=cfg.nitsche_gamma)
    q_true = source_field(cfg, mesh).values
    y = synthesize_data(ops, q_true)
    return ops, build_kkt(ops, alpha, y), q_true


def _run_id(kind: str, nx: int, ny: int, alpha: float, n_obs: int) -> str:
    solver = "cg-hess" if kind == REDUCED_REGULARIZATION else "minres"
    return f"{solver}-{kind}-nx{nx}-ny{ny}-alpha{alpha:g}-obs{n_obs}"


def _record_from_report(run_id: str, cfg_echo: dict, report, watch: _Stopwatch, target: float) -> RunRecord:
    errors = report.error_history
    rec = RunRecord(run_id=run_id, config_echo=cfg_echo, converged=report.converged)
    for k in range(report.iterations + 1):
        rec.rows.append(
            IterationRow(
                iteration=k,
                rel_param_error=float(errors[k]),
                precond_residual=float(report.residual_history[k]),
                wall_s=watch.marks[k],
            )
        )
    rec.iterations_to_target = _first_below(errors, target)
    return rec


def solve_one(
    cfg: ExperimentConfig,
    sys: KktSystem,
    kind: str,
    q_ref: np.ndarray,
    run_id: str,
    snapshot_sink=None,
) -> RunRecord:
    """Run MINRES+BDAL or CG on the reduced Hessian, tracking the relative
    parameter error against the sparse direct reference solution."""
    n = sys.n
    watch = _Stopwatch(cfg.timing)
    snapshots = set(cfg.snapshot_iters) if snapshot_sink else set()

    def callback(k, x):
        watch.mark()
        if k in snapshots:
            snapshot_sink(k, x[:n])

    echo = {"kind": kind, "alpha": sys.alpha, "n": n}
    if kind in BDAL_KINDS:
        prec = build_preconditioner(
            sys, kind, rho=cfg.rho_for(sys.alpha), inner_tol=cfg.inner_tol
        )
        report = minres(
            kkt_operator(sys),
            prec.as_operator(),
            sys.rhs,
            tol=cfg.tol,
            maxit=cfg.maxit,
            reference=q_ref,
            select=lambda x: x[:n],
            callback=callback,
        )
    elif kind == REDUCED_REGULARIZATION:
        h = reduced_hessian(sys)
        report = pcg(
            h.as_operator(),
            regularization_prec_operator(h),
            h.rhs(sys.y, sys.ops.observation),
            tol=cfg.tol,
            maxit=cfg.maxit,
            reference=q_ref,
            callback=callback,
        )
    else:
        raise ValueError(f"unknown solver kind {kind!r}")
    return _record_from_report(run_id, echo, report, watch, cfg.target_error)


def run_convergence(cfg: ExperimentConfig, out_dir: str | None = None) -> list[RunRecord]:
    """Error-vs-iteration comparison of the configured solvers on one
    instance (first entry of each list). Writes convergence.csv plus
    optional parameter-iterate snapshots as PGM."""
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    nx, ny, alpha, n_obs = cfg.nx[0], cfg.ny[0], cfg.alpha[0], cfg.n_obs[0]
    obs_path = _obs_source(cfg, n_obs, out)
    ops, sys, _ = _assemble_instance(cfg, nx, ny, alpha, obs_path)
    q_ref = reference_solution(sys)[: sys.n]

    records = []
    for kind in cfg.preconditioners:
        run_id = _run_id(kind, nx, ny, alpha, n_obs)

        def sink(k, q_iter, run_id=run_id):
            write_field_pgm(
                os.path.join(out, f"{run_id}-iter{k:04d}.pgm"),
                ops.mesh,
                q_iter,
                comments=(f"parameter iterate at iteration {k}",),
            )

        records.append(
            solve_one(cfg, sys, kind, q_ref, run_id, snapshot_sink=sink if cfg.snapshot_iters else None)
        )
    write_run_csv(os.path.join(out, "convergence.csv"), records)
    return records


def run_mesh_study(cfg: ExperimentConfig, out_dir: str | None = None) -> list[dict]:
    """Iterations-to-target across a mesh sequence at fixed alpha and a
    shared observation file. Writes mesh-study.csv (summary) and the
    per-iteration records CSV."""
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    if len(cfg.nx) < 2:
        raise ValueError("mesh study wants at least two meshes in nx/ny")
    alpha, n_obs = cfg.alpha[0], cfg.n_obs[0]
    obs_path = _obs_source(cfg, n_obs, out)

    records = []
    summary = []
    for nx, ny in zip(cfg.nx, cfg.ny):
        ops, sys, _ = _assemble_instance(cfg, nx, ny, alpha, obs_path)
        q_ref = reference_solution(sys)[: sys.n]
        for kind in cfg.preconditioners:
            run_id = _run_id(kind, nx, ny, alpha, n_obs)
            rec = solve_one(cfg, sys, kind, q_ref, run_id)
            records.append(rec)
            summary.append(
                {
                    "run-id": run_id,
                    "nx": nx,
                    "ny": ny,
                    "h": ops.mesh.h,
                    "n-vertices": ops.mesh.n_vertices,
                    "iters-to-target": rec.iterations_to_target,
                    "converged": rec.converged,
                }
            )
    lines = ["run-id,nx,ny,h,n-vertices,iters-to-target,converged"]
    for row in summary:
        iters = "" if row["iters-to-target"] is None else str(row["iters-to-target"])
        lines.append(
            f"{row['run-id']},{row['nx']},{row['ny']},{_fmt(row['h'])},"
            f"{row['n-vertices']},{iters},{str(row['converged']).lower()}"
        )
    atomic_write_text(os.path.join(out, "mesh-study.csv"), "\n".join(lines) + "\n")
    write_run_csv(os.path.join(out, "mesh-study-iterations.csv"), records)
    return summary


def run_reg_data_sweep(cfg: ExperimentConfig, out_dir: str | None = None) -> np.ndarray:
    """Iterations-to-target over the (alpha, n_obs) grid for the first
    configured preconditioner. Cell value -1 means the target was not
    reached. Writes sweep.csv; observation files are fixed per n_obs."""
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    nx, ny = cfg.nx[0], cfg.ny[0]
    kind = cfg.preconditioners[0]
    matrix = np.full((len(cfg.alpha), len(cfg.n_obs)), -1, dtype=np.int64)

    for j, n_obs in enumerate(cfg.n_obs):
        obs_path = _obs_source(cfg, n_obs, out)
        for i, alpha in enumerate(cfg.alpha):
            ops, sys, _ = _assemble_instance(cfg, nx, ny, alpha, obs_path)
            q_ref = reference_solution(sys)[: sys.n]
            rec = solve_one(
                cfg, sys, kind, q_ref, _run_id(kind, nx, ny, alpha, n_obs)
            )
            if rec.iterations_to_target is not None:
                matrix[i, j] = rec.iterations_to_target

    lines = ["alpha," + ",".join(str(n) for n in cfg.n_obs)]
    for i, alpha in enumerate(cfg.alpha):
        lines.append(_fmt(alpha) + "," + ",".join(str(int(v)) for v in matrix[i]))
    atomic_write_text(os.path.join(out, "sweep.csv"), "\n".join(lines) + "\n")
    return matrix


def run_theory_verification(
    cfg: ExperimentConfig, out_dir: str | None = None
) -> tuple[list[dict], bool]:
    """verify_spectral_bounds on every (mesh, n_obs, alpha) instance.

    Returns (rows, all_ok). Rows carry the measured constants, extrema, and
    bounds; a failed instance is recorded and the sweep continues.
    """
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    rows = []
    all_ok = True
    for nx, ny in zip(cfg.nx, cfg.ny):
        for n_obs in cfg.n_obs:
            obs_path = _obs_source(cfg, n_obs, out)
            for alpha in cfg.alpha:
                mesh = build_mesh(cfg.lx, cfg.ly, nx, ny)
                obs = read_observations(obs_path, cfg.lx, cfg.ly)
                ops = assemble_problem(mesh, obs, t=cfg.reg_shift, gamma0=cfg.nitsche_gamma)
                sys = build_kkt(ops, alpha, np.zeros(n_obs))
                prec = build_preconditioner(sys, "bdal-exact", rho=cfg.rho_for(alpha))
                run_id = f"theory-nx{nx}-ny{ny}-alpha{alpha:g}-obs{n_obs}"
                try:
                    report = verify_spectral_bounds(sys, prec)
                    ok = True
                except TheoryViolationError as exc:
                    report = exc.report
                    ok = False
                    all_ok = False
                rows.append(
                    {
                        "run-id": run_id,
                        "nx": nx,
                        "ny": ny,
                        "n-obs": n_obs,
                        "alpha": alpha,
                        "rho": cfg.rho_for(alpha),
                        "report": report,
                        "pass": ok,
                    }
                )
    header = (
        "run-id,nx,ny,n-obs,alpha,rho,delta,beta,sigma-min-e,sigma-max-e,cond-e,"
        "bound-sigma-min,bound-cond,sigma-min-y,lambda-min-coercivity,pass"
    )
    lines = [header]
    for row in rows:
        rep: ConditionReport = row["report"]
        lines.append(
            ",".join(
                [
                    row["run-id"],
                    str(row["nx"]),
                    str(row["ny"]),
                    str(row["n-obs"]),
                    _fmt(row["alpha"]),
                    _fmt(row["rho"]),
                    _fmt(rep.delta),
                    _fmt(rep.beta),
                    _fmt(rep.sigma_min_e),
                    _fmt(rep.sigma_max_e),
                    _fmt(rep.cond_e),
                    _fmt(rep.bound_sigma_min),
                    _fmt(rep.bound_cond),
                    _fmt(rep.sigma_min_y),
                    _fmt(rep.lambda_min_coercivity),
                    str(row["pass"]).lower(),
                ]
            )
        )
    atomic_write_text(os.path.join(out, "theory.csv"), "\n".join(lines) + "\n")
    return rows, all_ok
