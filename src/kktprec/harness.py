"""Experiment drivers: observation generation, synthetic sources, and the
convergence / mesh / sweep / theory studies with CSV and PGM artifacts.

Reproducibility contract: every artifact is a deterministic function of
(config, seed, observation file). Each study writes its observation file
before any solve and solves with the points it wrote; the file's .17g text
round-trips every float64, so a rerun from that file sees the same points
bit for bit. Wall-clock timing is opt-in (config key timing); with it off,
the wall-s column is written as zero and reruns are byte-identical.

One path serves every instance of the convergence, mesh and sweep studies
(_solve_instance: build the KKT system, solve the reference, run each
solver), and one writer (_write_csv) formats every CSV.

The sweep records only iterations-to-target, so its solves pass
cfg.target_error to the Krylov solver as a third stop rule beside tol and
maxit: each ends at its first iterate below the target, the iterate that
decides its cell. The convergence and mesh studies write every iterate
and the converged flag, so their solves run to tol or maxit.
"""

from __future__ import annotations

import os
import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from .config import BDAL_EXACT, BDAL_KINDS, REDUCED_REGULARIZATION, ExperimentConfig
from .fem import interpolate_image
from .formats import (
    read_observations,
    read_pgm,
    write_field_pgm,
    write_observations,
    atomic_write_text,
)
from .kkt import (
    KktSystem,
    ProblemOperators,
    ReducedHessianOperator,
    assemble_problem,
    build_kkt,
    build_preconditioner,
    kkt_operator,
    reference_solution,
    regularization_prec_operator,
    synthesize_data,
)
from .krylov import minres, pcg
from .mesh import NodalField, ObservationSet, TriMesh, build_mesh
from .parallel import map_in_order
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
class RunRecord:
    """One solver run: config echo; per iterate k = 0..iterations, the
    relative parameter error, the preconditioned residual and the
    cumulative wall time; and the first iteration at which the relative
    parameter error fell below the target."""

    run_id: str
    config_echo: dict
    rel_param_error: np.ndarray
    precond_residual: np.ndarray
    wall_s: list[float]
    iterations_to_target: int | None = None
    converged: bool = False


def _cell(value) -> str:
    """One CSV cell: a float at 17 significant digits (lossless), a bool as
    true/false, None as empty, anything else by str."""
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


def _write_csv(path: str, header, rows) -> None:
    lines = [",".join(map(_cell, row)) for row in [header, *rows]]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_run_csv(path: str, records: list[RunRecord]) -> None:
    rows = [
        (rec.run_id, k, *row)
        for rec in records
        for k, row in enumerate(zip(rec.rel_param_error, rec.precond_residual, rec.wall_s))
    ]
    _write_csv(path, CSV_COLUMNS, rows)


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


def _observations(cfg: ExperimentConfig, n_obs: int, out_dir: str) -> ObservationSet:
    """Write observations-n{n_obs}.txt (a copy of the configured file, its
    count checked, or drawn from the seed) before any solve and return its
    points; the file's text reads back to the same float64 bits."""
    if cfg.obs_file is not None:
        obs = read_observations(cfg.obs_file, cfg.lx, cfg.ly)
        if obs.n_obs != n_obs:
            raise ValueError(
                f"observation file holds {obs.n_obs} points but config wants {n_obs}"
            )
    else:
        obs = generate_observations(cfg.seed, n_obs, cfg.lx, cfg.ly)
    write_observations(os.path.join(out_dir, f"observations-n{n_obs}.txt"), obs)
    return obs


def source_field(cfg: ExperimentConfig, mesh: TriMesh) -> NodalField:
    if cfg.source == "synthetic":
        return synth_source(mesh)
    return interpolate_image(mesh, read_pgm(cfg.source), low=0.0, high=1.0)


def _assemble_data(
    cfg: ExperimentConfig, mesh: TriMesh, obs: ObservationSet
) -> tuple[ProblemOperators, np.ndarray]:
    """Operators of one (mesh, observation set) pair and the synthetic data
    y; neither depends on alpha."""
    ops = assemble_problem(mesh, obs, t=cfg.reg_shift, gamma0=cfg.nitsche_gamma)
    return ops, synthesize_data(ops, source_field(cfg, mesh).values)


def solve_one(
    cfg: ExperimentConfig,
    sys: KktSystem,
    kind: str,
    q_ref: np.ndarray,
    snapshot_dir: str | None = None,
    target: float | None = None,
) -> RunRecord:
    """Run MINRES+BDAL or CG on the reduced Hessian, tracking the relative
    parameter error against the sparse direct reference solution. With a
    snapshot_dir, the parameter iterates at cfg.snapshot_iters are written
    there as PGM. With a target, the solve ends at its first iterate whose
    relative error is below it."""
    n, mesh = sys.n, sys.ops.mesh
    solver = "cg-hess" if kind == REDUCED_REGULARIZATION else "minres"
    run_id = f"{solver}-{kind}-nx{mesh.nx}-ny{mesh.ny}-alpha{sys.alpha:g}-obs{sys.y.size}"
    watch = _Stopwatch(cfg.timing)
    snapshots = set(cfg.snapshot_iters) if snapshot_dir is not None else set()

    def callback(k, x):
        watch.mark()
        if k in snapshots:
            write_field_pgm(
                os.path.join(snapshot_dir, f"{run_id}-iter{k:04d}.pgm"),
                mesh,
                x[:n],
                comments=(f"parameter iterate at iteration {k}",),
            )

    if kind in BDAL_KINDS:
        prec = build_preconditioner(sys, kind, rho=cfg.rho_for(sys.alpha))
        report = minres(
            kkt_operator(sys),
            prec.as_operator(),
            sys.rhs,
            tol=cfg.tol,
            maxit=cfg.maxit,
            reference=q_ref,
            select=lambda x: x[:n],
            callback=callback,
            target=target,
        )
    elif kind == REDUCED_REGULARIZATION:
        h = ReducedHessianOperator(sys)
        report = pcg(
            h.as_operator(),
            regularization_prec_operator(h),
            h.rhs(sys.y, sys.ops.observation),
            tol=cfg.tol,
            maxit=cfg.maxit,
            reference=q_ref,
            callback=callback,
            target=target,
        )
    else:
        raise ValueError(f"unknown solver kind {kind!r}")
    return RunRecord(
        run_id=run_id,
        config_echo={"kind": kind, "alpha": sys.alpha, "n": n},
        rel_param_error=report.error_history,
        precond_residual=report.residual_history,
        wall_s=watch.marks,
        iterations_to_target=_first_below(report.error_history, cfg.target_error),
        converged=report.converged,
    )


def _solve_instance(
    cfg: ExperimentConfig,
    ops: ProblemOperators,
    y: np.ndarray,
    alpha: float,
    kinds: tuple[str, ...],
    snapshot_dir: str | None = None,
    target: float | None = None,
) -> list[RunRecord]:
    """Every given solver on one (operators, data, alpha) instance, each
    stopped at target if one is given (see solve_one). The instance's
    system and reference die with this call."""
    sys = build_kkt(ops, alpha, y)
    q_ref = reference_solution(sys)[: sys.n]
    return [solve_one(cfg, sys, kind, q_ref, snapshot_dir, target) for kind in kinds]


def run_convergence(cfg: ExperimentConfig) -> list[RunRecord]:
    """Error-vs-iteration comparison of the configured solvers on one
    instance (first entry of each list). Writes convergence.csv plus
    optional parameter-iterate snapshots as PGM."""
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    mesh = build_mesh(cfg.lx, cfg.ly, cfg.nx[0], cfg.ny[0])
    ops, y = _assemble_data(cfg, mesh, _observations(cfg, cfg.n_obs[0], out))
    records = _solve_instance(cfg, ops, y, cfg.alpha[0], cfg.preconditioners, snapshot_dir=out)
    write_run_csv(os.path.join(out, "convergence.csv"), records)
    return records


MESH_STUDY_COLUMNS = ("run-id", "nx", "ny", "h", "n-vertices", "iters-to-target", "converged")


def run_mesh_study(cfg: ExperimentConfig) -> list[dict]:
    """Iterations-to-target across a mesh sequence at fixed alpha and a
    shared observation file. Writes mesh-study.csv (summary) and the
    per-iteration records CSV."""
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    if len(cfg.nx) < 2:
        raise ValueError("mesh study wants at least two meshes in nx/ny")
    obs = _observations(cfg, cfg.n_obs[0], out)

    records = []
    summary = []
    for nx, ny in zip(cfg.nx, cfg.ny):
        mesh = build_mesh(cfg.lx, cfg.ly, nx, ny)
        ops, y = _assemble_data(cfg, mesh, obs)
        for rec in _solve_instance(cfg, ops, y, cfg.alpha[0], cfg.preconditioners):
            records.append(rec)
            row = (rec.run_id, nx, ny, mesh.h, mesh.n_vertices, rec.iterations_to_target, rec.converged)
            summary.append(dict(zip(MESH_STUDY_COLUMNS, row)))
        del ops, y  # freed before the next rung assembles its own
    _write_csv(os.path.join(out, "mesh-study.csv"), MESH_STUDY_COLUMNS, map(dict.values, summary))
    write_run_csv(os.path.join(out, "mesh-study-iterations.csv"), records)
    return summary


def run_reg_data_sweep(cfg: ExperimentConfig) -> np.ndarray:
    """Iterations-to-target over the (alpha, n_obs) grid for the first
    configured preconditioner. Cell value -1 means the target was not
    reached. Each solve stops at its first iterate below
    cfg.target_error; tol and maxit still cap it. Writes sweep.csv;
    observation files are fixed per n_obs."""
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    mesh = build_mesh(cfg.lx, cfg.ly, cfg.nx[0], cfg.ny[0])
    kind = cfg.preconditioners[0]
    matrix = np.full((len(cfg.alpha), len(cfg.n_obs)), -1, dtype=np.int64)

    for j, n_obs in enumerate(cfg.n_obs):
        ops, y = _assemble_data(cfg, mesh, _observations(cfg, n_obs, out))
        for i, alpha in enumerate(cfg.alpha):
            (rec,) = _solve_instance(cfg, ops, y, alpha, (kind,), target=cfg.target_error)
            if rec.iterations_to_target is not None:
                matrix[i, j] = rec.iterations_to_target
        del ops, y  # freed before the next observation count assembles its own

    rows = [(alpha, *matrix[i]) for i, alpha in enumerate(cfg.alpha)]
    _write_csv(os.path.join(out, "sweep.csv"), ("alpha", *cfg.n_obs), rows)
    return matrix


def _theory_row(job: tuple[ProblemOperators, float, float]) -> dict:
    """Verify one (mesh, n_obs, alpha) instance; a violation is recorded in
    the row, not raised."""
    ops, alpha, rho = job
    nx, ny, n_obs = ops.mesh.nx, ops.mesh.ny, ops.obs.n_obs
    sys = build_kkt(ops, alpha, np.zeros(n_obs))
    prec = build_preconditioner(sys, BDAL_EXACT, rho=rho)
    try:
        report, ok = verify_spectral_bounds(sys, prec), True
    except TheoryViolationError as exc:
        report, ok = exc.report, False
    return {
        "run-id": f"theory-nx{nx}-ny{ny}-alpha{alpha:g}-obs{n_obs}",
        "nx": nx,
        "ny": ny,
        "n-obs": n_obs,
        "alpha": alpha,
        "rho": rho,
        "report": report,
        "pass": ok,
    }


def run_theory_verification(cfg: ExperimentConfig) -> tuple[list[dict], bool]:
    """verify_spectral_bounds on every (mesh, n_obs, alpha) instance.

    Returns (rows, all_ok). Rows carry the measured constants, extrema, and
    bounds; a failed instance is recorded and the sweep continues. Each
    observation file is written once; operators are assembled here once per
    (mesh, n_obs); the instances are verified by parallel.map_in_order, in
    one forked worker per core when OpenBLAS loaded with one thread,
    otherwise serially. Workers inherit the operators through the fork;
    only the rows are pickled back.
    """
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    obs_sets = [_observations(cfg, n_obs, out) for n_obs in cfg.n_obs]
    jobs = []
    for nx, ny in zip(cfg.nx, cfg.ny):
        mesh = build_mesh(cfg.lx, cfg.ly, nx, ny)
        for obs in obs_sets:
            ops = assemble_problem(mesh, obs, t=cfg.reg_shift, gamma0=cfg.nitsche_gamma)
            ops.btb  # formed here, once: workers inherit it through the fork for every alpha's job
            jobs += [(ops, alpha, cfg.rho_for(alpha)) for alpha in cfg.alpha]
    rows = map_in_order(_theory_row, jobs)
    measured = [f.name.replace("_", "-") for f in fields(ConditionReport)]
    _write_csv(
        os.path.join(out, "theory.csv"),
        ["run-id", "nx", "ny", "n-obs", "alpha", "rho", *measured, "pass"],
        [
            (row["run-id"], row["nx"], row["ny"], row["n-obs"], row["alpha"], row["rho"],
             *astuple(row["report"]), row["pass"])
            for row in rows
        ],
    )
    return rows, all(row["pass"] for row in rows)
