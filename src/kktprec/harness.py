"""Experiment drivers: observation generation, synthetic sources, and the
convergence / mesh / sweep / theory studies with CSV and PGM artifacts.

Reproducibility contract: every artifact is a deterministic function of
(config, seed, observation file). Each study writes its observation files
before any solve and solves with the points it wrote; the file's .17g text
round-trips every float64, so a rerun from that file sees the same points
bit for bit. Wall-clock timing is opt-in (config key timing); with it off,
the wall-s column is written as zero and reruns are byte-identical.

Every study is a slice of one (mesh, n_obs) grid, _grid: convergence takes
the first mesh and count, mesh-study every mesh at the first count
(largest first; rows in config order), sweep the first mesh at every
count, verify-theory all of it without data. One path serves every
instance of the first three (_solve_instance: build the KKT system, solve
the reference, run each solver), and one writer (_write_csv) formats
every CSV.

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
from functools import partial
from typing import Iterator

import numpy as np

from .config import BDAL_EXACT, REDUCED_REGULARIZATION, ExperimentConfig
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


def _observations(cfg: ExperimentConfig, n_obs: int) -> tuple[str, ObservationSet]:
    """Write observations-n{n_obs}.txt into cfg.out_dir (a copy of the
    configured file, its count checked, or drawn from the seed) and return
    its path and points; the file's text reads back to the same float64
    bits."""
    if cfg.obs_file is not None:
        obs = read_observations(cfg.obs_file, cfg.lx, cfg.ly)
        if obs.n_obs != n_obs:
            raise ValueError(
                f"observation file holds {obs.n_obs} points but config wants {n_obs}"
            )
    else:
        obs = generate_observations(cfg.seed, n_obs, cfg.lx, cfg.ly)
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, f"observations-n{n_obs}.txt")
    write_observations(path, obs)
    return path, obs


def source_field(cfg: ExperimentConfig, mesh: TriMesh) -> NodalField:
    if cfg.source == "synthetic":
        return synth_source(mesh)
    return interpolate_image(mesh, read_pgm(cfg.source), low=0.0, high=1.0)


def _grid(cfg: ExperimentConfig, meshes, n_obs, data: bool = True) -> Iterator[list]:
    """Each (mesh, n_obs) pair as a list [operators, y], meshes outer.

    Writes every observation file first, builds each mesh once and
    assembles each pair once; y is the synthetic data if data is true, else
    None. The list is emptied before the next pair assembles, so a caller
    that holds only the list frees each pair's operators first."""
    obs_sets = [_observations(cfg, n)[1] for n in n_obs]
    for nx, ny in meshes:
        mesh = build_mesh(cfg.lx, cfg.ly, nx, ny)
        q_true = source_field(cfg, mesh).values if data else None
        for obs in obs_sets:
            pair = [assemble_problem(mesh, obs, t=cfg.reg_shift, gamma0=cfg.nitsche_gamma)]
            pair.append(synthesize_data(pair[0], q_true) if data else None)
            yield pair
            pair.clear()


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

    if kind == REDUCED_REGULARIZATION:
        h = ReducedHessianOperator(sys)
        krylov = pcg
        problem = (h.as_operator(), regularization_prec_operator(h), h.rhs(sys.y, sys.ops.observation))
    else:  # build_preconditioner rejects an unknown kind before it factors anything
        prec = build_preconditioner(sys, kind, rho=cfg.rho_for(sys.alpha))
        krylov = partial(minres, select=lambda x: x[:n])
        problem = (kkt_operator(sys), prec.as_operator(), sys.rhs)
    report = krylov(
        *problem, tol=cfg.tol, maxit=cfg.maxit, reference=q_ref, callback=callback, target=target
    )
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
    for pair in _grid(cfg, zip(cfg.nx[:1], cfg.ny[:1]), cfg.n_obs[:1]):
        records = _solve_instance(cfg, *pair, cfg.alpha[0], cfg.preconditioners, snapshot_dir=cfg.out_dir)
    write_run_csv(os.path.join(cfg.out_dir, "convergence.csv"), records)
    return records


MESH_STUDY_COLUMNS = ("run-id", "nx", "ny", "h", "n-vertices", "iters-to-target", "converged")


def run_mesh_study(cfg: ExperimentConfig) -> list[dict]:
    """Iterations-to-target across a mesh sequence at fixed alpha and a
    shared observation file. Writes mesh-study.csv (summary) and the
    per-iteration records CSV.

    The rungs are solved largest first (most vertices; ties in config
    order), so the largest rung's reference LU, which sets the study's
    peak memory, is allocated before the smaller rungs' freed memory
    fragments the heap. Rows, records and the returned summary are in
    config order."""
    if len(cfg.nx) < 2:
        raise ValueError("mesh study wants at least two meshes in nx/ny")
    meshes = list(zip(cfg.nx, cfg.ny))
    order = sorted(range(len(meshes)), key=lambda i: -(meshes[i][0] + 1) * (meshes[i][1] + 1))
    rungs = [None] * len(meshes)  # (mesh, records) per rung, in config order
    for k, pair in enumerate(_grid(cfg, [meshes[i] for i in order], cfg.n_obs[:1])):
        rungs[order[k]] = (pair[0].mesh, _solve_instance(cfg, *pair, cfg.alpha[0], cfg.preconditioners))
    records = []
    summary = []
    for mesh, recs in rungs:
        for rec in recs:
            records.append(rec)
            row = (rec.run_id, mesh.nx, mesh.ny, mesh.h, mesh.n_vertices, rec.iterations_to_target, rec.converged)
            summary.append(dict(zip(MESH_STUDY_COLUMNS, row)))
    _write_csv(os.path.join(cfg.out_dir, "mesh-study.csv"), MESH_STUDY_COLUMNS, map(dict.values, summary))
    write_run_csv(os.path.join(cfg.out_dir, "mesh-study-iterations.csv"), records)
    return summary


def run_reg_data_sweep(cfg: ExperimentConfig) -> np.ndarray:
    """Iterations-to-target over the (alpha, n_obs) grid for the one
    configured solver; more than one is an error. Cell value -1 means the
    target was not reached. Each solve stops at its first iterate below
    cfg.target_error; tol and maxit still cap it. Writes sweep.csv."""
    kinds = cfg.preconditioners
    if len(kinds) != 1:
        raise ValueError(f"sweep runs one solver, but preconditioners lists {len(kinds)}: {', '.join(kinds)}")
    matrix = np.full((len(cfg.alpha), len(cfg.n_obs)), -1, dtype=np.int64)
    for j, pair in enumerate(_grid(cfg, zip(cfg.nx[:1], cfg.ny[:1]), cfg.n_obs)):
        for i, alpha in enumerate(cfg.alpha):
            (rec,) = _solve_instance(cfg, *pair, alpha, kinds, target=cfg.target_error)
            if rec.iterations_to_target is not None:
                matrix[i, j] = rec.iterations_to_target
    rows = [(alpha, *matrix[i]) for i, alpha in enumerate(cfg.alpha)]
    _write_csv(os.path.join(cfg.out_dir, "sweep.csv"), ("alpha", *cfg.n_obs), rows)
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
    bounds; a failed instance is recorded and the sweep continues. The
    grid assembles each (mesh, n_obs) once, without data; the instances are
    verified by parallel.map_in_order, in one forked worker per core when
    OpenBLAS loaded with one thread, otherwise serially. Workers inherit the
    operators through the fork; only the rows are pickled back.
    """
    jobs = []
    for ops, _ in _grid(cfg, zip(cfg.nx, cfg.ny), cfg.n_obs, data=False):
        ops.btb  # formed here, once: workers inherit it through the fork for every alpha's job
        jobs += [(ops, alpha, cfg.rho_for(alpha)) for alpha in cfg.alpha]
    rows = map_in_order(_theory_row, jobs)
    measured = [f.name.replace("_", "-") for f in fields(ConditionReport)]
    _write_csv(
        os.path.join(cfg.out_dir, "theory.csv"),
        ["run-id", "nx", "ny", "n-obs", "alpha", "rho", *measured, "pass"],
        [
            (row["run-id"], row["nx"], row["ny"], row["n-obs"], row["alpha"], row["rho"],
             *astuple(row["report"]), row["pass"])
            for row in rows
        ],
    )
    return rows, all(row["pass"] for row in rows)
