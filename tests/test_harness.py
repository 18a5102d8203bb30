"""Experiment drivers: observation sampling, the synthetic source, and the
four run_* entry points with their CSV/PGM outputs."""

import os
import pickle
from dataclasses import replace

import numpy as np
import pytest

from helpers import splitmix64_reference
from kktprec import harness, kkt, parallel
from kktprec.cli import EXIT_ERROR, EXIT_THEORY_VIOLATION, main
from kktprec.config import ExperimentConfig, load_config
from kktprec.formats import read_observations, read_pgm, write_observations
from kktprec.harness import (
    CSV_COLUMNS,
    generate_observations,
    run_convergence,
    run_mesh_study,
    run_reg_data_sweep,
    run_theory_verification,
    synth_source,
)
from kktprec.mesh import build_mesh
from kktprec.spectral import NotSpdError, TheoryViolationError


# ---------------------------------------------------------------- sampling


def _oracle_points(seed, n, lx, ly):
    # Mirror of the documented sampling contract, built on the reference
    # generator from helpers rather than the package RNG.
    words = iter(splitmix64_reference(seed, 8 * n + 64))
    mx, my = 1e-9 * lx, 1e-9 * ly
    pts = []
    while len(pts) < n:
        x = next(words) * 2.0**-64 * lx
        y = next(words) * 2.0**-64 * ly
        if x < mx or x > lx - mx or y < my or y > ly - my:
            continue
        pts.append((x, y))
    return np.array(pts)


def test_observations_deterministic():
    a = generate_observations(11, 40, 1.45, 1.0)
    b = generate_observations(11, 40, 1.45, 1.0)
    assert np.array_equal(a.points, b.points)


def test_observations_strictly_inside():
    obs = generate_observations(7, 400, 1.45, 1.0)
    x, y = obs.points[:, 0], obs.points[:, 1]
    assert np.all((x > 0) & (x < 1.45))
    assert np.all((y > 0) & (y < 1.0))


def test_observations_match_reference_stream():
    got = generate_observations(1, 3, 1.45, 1.0).points
    want = _oracle_points(1, 3, 1.45, 1.0)
    assert np.array_equal(got, want)


def test_observations_match_reference_stream_long():
    got = generate_observations(12345, 50, 2.0, 0.5).points
    want = _oracle_points(12345, 50, 2.0, 0.5)
    assert np.array_equal(got, want)


def test_observation_file_roundtrip_bitexact(tmp_path):
    obs = generate_observations(3, 25, 1.45, 1.0)
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    write_observations(str(p1), obs)
    write_observations(str(p2), obs)
    assert p1.read_bytes() == p2.read_bytes()


# ------------------------------------------------------------------ source


def test_source_range_and_determinism():
    mesh = build_mesh(1.45, 1.0, 12, 9)
    f1 = synth_source(mesh).values
    f2 = synth_source(mesh).values
    assert np.array_equal(f1, f2)
    assert np.all(f1 >= 0.0) and np.all(f1 <= 1.0)


def test_source_plateau_bump_and_far_field():
    # Unit square, 10x10 cells: vertices land exactly on relative tenths.
    mesh = build_mesh(1.0, 1.0, 10, 10)
    v = synth_source(mesh).values
    assert v[mesh.vertex_index(3, 7)] == 1.0          # inside the plateau
    assert abs(v[mesh.vertex_index(7, 3)] - 0.9) < 1e-12  # bump center
    assert v[mesh.vertex_index(0, 0)] <= 0.05
    assert v[mesh.vertex_index(10, 10)] <= 0.05


def test_source_scales_with_domain():
    # The source lives in relative coordinates, so stretching the domain
    # must not move it in relative terms.
    unit = synth_source(build_mesh(1.0, 1.0, 10, 10)).values
    wide = synth_source(build_mesh(2.9, 2.0, 10, 10)).values
    assert np.allclose(unit, wide, rtol=0, atol=1e-12)


# ------------------------------------------------------------- convergence


@pytest.fixture(scope="module")
def conv_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("conv"))
    cfg = ExperimentConfig(
        nx=(6,),
        ny=(4,),
        alpha=(1e-6,),
        n_obs=(12,),
        seed=3,
        preconditioners=(
            "bdal-exact",
            "bdal-lumped-exact",
            "bdal-lumped-inexact",
            "reduced-regularization",
        ),
        tol=1e-12,
        maxit=500,
        snapshot_iters=(0, 2),
        out_dir=out,
    )
    records = run_convergence(cfg)
    return cfg, records, out


def test_convergence_record_layout(conv_run):
    cfg, records, _ = conv_run
    assert [r.config_echo["kind"] for r in records] == list(cfg.preconditioners)
    for rec in records:
        assert len(rec.rel_param_error) == len(rec.precond_residual) == len(rec.wall_s)
        assert all(w == 0.0 for w in rec.wall_s)  # timing off


def test_cross_solver_final_agreement(conv_run):
    # All solvers drive the same parameter block toward the same dense
    # reference; at tol 1e-12 the exact-preconditioner runs must land well
    # below 1e-6 relative error, which bounds their pairwise distance.
    _, records, _ = conv_run
    by_kind = {r.config_echo["kind"]: r for r in records}
    for kind in ("bdal-exact", "bdal-lumped-exact", "reduced-regularization"):
        assert by_kind[kind].rel_param_error[-1] <= 5e-7, kind
    # The inexact variant applies its middle block only to 1e-2, which
    # leaves an error floor, but it still has to reach the study target.
    inexact = by_kind["bdal-lumped-inexact"]
    assert inexact.iterations_to_target is not None
    assert inexact.rel_param_error[-1] <= 1e-4


def test_exact_and_lumped_iteration_counts_comparable(conv_run):
    # Lumping the mass inside the second and third blocks is a bounded
    # perturbation, so the two variants converge at comparable speed.
    _, records, _ = conv_run
    by_kind = {r.config_echo["kind"]: r for r in records}
    ita = by_kind["bdal-exact"].iterations_to_target
    itb = by_kind["bdal-lumped-exact"].iterations_to_target
    assert ita is not None and itb is not None
    assert abs(ita - itb) <= 0.25 * max(ita, itb)
    # and both are past the study target 20 iterations later at the latest
    for rec in (by_kind["bdal-exact"], by_kind["bdal-lumped-exact"]):
        k = min(max(ita, itb) + 20, len(rec.rel_param_error) - 1)
        assert rec.rel_param_error[k] < 1e-5


def test_convergence_csv_schema(conv_run):
    cfg, records, out = conv_run
    lines = open(os.path.join(out, "convergence.csv")).read().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    counts = {}
    for line in lines[1:]:
        rid = line.split(",", 1)[0]
        counts[rid] = counts.get(rid, 0) + 1
    for rec in records:
        assert counts[rec.run_id] == len(rec.rel_param_error)
        assert len(rec.rel_param_error) <= cfg.maxit + 1


def test_snapshot_pgms_written(conv_run):
    cfg, _, out = conv_run
    rid = "minres-bdal-exact-nx6-ny4-alpha1e-06-obs12"
    for k in cfg.snapshot_iters:
        path = os.path.join(out, f"{rid}-iter{k:04d}.pgm")
        img = read_pgm(path)
        assert img.shape == (cfg.ny[0] + 1, cfg.nx[0] + 1)


def test_convergence_outputs_reproducible(tmp_path):
    cfg = ExperimentConfig(
        nx=(5,),
        ny=(4,),
        alpha=(1e-4,),
        n_obs=(8,),
        seed=9,
        preconditioners=("bdal-lumped-exact",),
        tol=1e-10,
        maxit=200,
        snapshot_iters=(2,),
    )
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        run_convergence(replace(cfg, out_dir=out))
        outs.append(out)
    for fname in sorted(os.listdir(outs[0])):
        b0 = open(os.path.join(outs[0], fname), "rb").read()
        b1 = open(os.path.join(outs[1], fname), "rb").read()
        assert b0 == b1, fname
    assert any(f.endswith(".pgm") for f in os.listdir(outs[0]))
    assert "observations-n8.txt" in os.listdir(outs[0])


def test_obs_file_passthrough_and_count_check(tmp_path):
    obs = generate_observations(4, 6, 1.45, 1.0)
    path = tmp_path / "fixed.txt"
    write_observations(str(path), obs)
    base = dict(
        nx=(4,),
        ny=(3,),
        alpha=(1e-2,),
        preconditioners=("bdal-lumped-exact",),
        tol=1e-8,
        maxit=100,
        obs_file=str(path),
    )
    ok = ExperimentConfig(n_obs=(6,), out_dir=str(tmp_path / "ok"), **base)
    records = run_convergence(ok)
    assert records[0].converged
    bad = ExperimentConfig(n_obs=(5,), out_dir=str(tmp_path / "bad"), **base)
    with pytest.raises(ValueError, match="observation file holds"):
        run_convergence(bad)


# -------------------------------------------------------------- mesh study


def test_mesh_study_rejects_single_mesh(tmp_path):
    cfg = ExperimentConfig(nx=(4,), ny=(3,), out_dir=str(tmp_path))
    with pytest.raises(ValueError, match="two meshes"):
        run_mesh_study(cfg)


def test_mesh_study_summary_and_files(tmp_path):
    cfg = ExperimentConfig(
        nx=(4, 8),
        ny=(3, 6),
        alpha=(1e-2,),
        n_obs=(10,),
        seed=2,
        preconditioners=("bdal-lumped-exact",),
        tol=1e-10,
        maxit=300,
        out_dir=str(tmp_path),
    )
    summary = run_mesh_study(cfg)
    assert len(summary) == 2
    keys = {"run-id", "nx", "ny", "h", "n-vertices", "iters-to-target", "converged"}
    for row in summary:
        assert set(row) == keys
    assert summary[0]["h"] > summary[1]["h"]
    assert summary[0]["n-vertices"] == 5 * 4
    assert summary[1]["n-vertices"] == 9 * 7
    assert all(row["iters-to-target"] is not None for row in summary)
    lines = (tmp_path / "mesh-study.csv").read_text().splitlines()
    assert lines[0] == "run-id,nx,ny,h,n-vertices,iters-to-target,converged"
    assert len(lines) == 3
    assert (tmp_path / "mesh-study-iterations.csv").exists()


def test_mesh_study_unreached_target_cell(tmp_path):
    # With a one-iteration budget the target column is left empty.
    cfg = ExperimentConfig(
        nx=(4, 8),
        ny=(3, 6),
        alpha=(1e-2,),
        n_obs=(10,),
        preconditioners=("bdal-lumped-exact",),
        tol=1e-12,
        maxit=1,
        target_error=1e-9,
        out_dir=str(tmp_path),
    )
    summary = run_mesh_study(cfg)
    assert all(row["iters-to-target"] is None for row in summary)
    lines = (tmp_path / "mesh-study.csv").read_text().splitlines()
    for line in lines[1:]:
        assert line.split(",")[5] == ""
        assert line.split(",")[6] == "false"


# ------------------------------------------------------------------- sweep


def test_sweep_matrix_shape_and_easy_regime(tmp_path):
    cfg = ExperimentConfig(
        nx=(4,),
        ny=(3,),
        alpha=(1.0, 1e-2),
        n_obs=(5, 9),
        seed=5,
        preconditioners=("bdal-lumped-exact",),
        tol=1e-10,
        maxit=200,
        out_dir=str(tmp_path),
    )
    matrix = run_reg_data_sweep(cfg)
    assert matrix.shape == (2, 2)
    assert matrix.dtype == np.int64
    assert np.all(matrix >= 1)
    assert np.all(matrix[0] <= 15)  # heavy regularization converges fast
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "alpha,5,9"
    assert lines[1].split(",")[0] == "1"
    got = np.array([line.split(",")[1:] for line in lines[1:]], dtype=np.int64)
    assert np.array_equal(got, matrix)


def test_sweep_unreached_cells_are_minus_one(tmp_path):
    cfg = ExperimentConfig(
        nx=(4,),
        ny=(3,),
        alpha=(1e-2,),
        n_obs=(5,),
        preconditioners=("bdal-lumped-exact",),
        tol=1e-12,
        maxit=2,
        target_error=1e-9,
        out_dir=str(tmp_path),
    )
    matrix = run_reg_data_sweep(cfg)
    assert matrix.shape == (1, 1)
    assert matrix[0, 0] == -1
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[1] == "0.01,-1"


@pytest.mark.parametrize("kind", ["bdal-lumped-exact", "reduced-regularization"])
def test_sweep_stops_each_solve_at_its_target_crossing(tmp_path, monkeypatch, kind):
    # The sweep ends each solve at its first iterate below target_error;
    # its cells must equal _first_below of solves run on to tol.
    cfg = ExperimentConfig(
        nx=(4,),
        ny=(3,),
        alpha=(1.0, 1e-2, 1e-4),
        n_obs=(5, 9),
        seed=3,
        preconditioners=(kind,),
        tol=1e-12,
        maxit=200,
        out_dir=str(tmp_path),
    )
    stopped = []
    real = harness.solve_one

    def recording(*args, **kwargs):
        stopped.append(real(*args, **kwargs))
        return stopped[-1]

    monkeypatch.setattr(harness, "solve_one", recording)
    matrix = run_reg_data_sweep(cfg)
    monkeypatch.undo()

    mesh = build_mesh(cfg.lx, cfg.ly, cfg.nx[0], cfg.ny[0])
    want = np.full_like(matrix, -1)
    full = []
    for j, n_obs in enumerate(cfg.n_obs):
        obs = harness.generate_observations(cfg.seed, n_obs, cfg.lx, cfg.ly)
        ops, y = harness._assemble_data(cfg, mesh, obs)
        for i, alpha in enumerate(cfg.alpha):
            (rec,) = harness._solve_instance(cfg, ops, y, alpha, (kind,))
            full.append(rec)
            hit = harness._first_below(rec.rel_param_error, cfg.target_error)
            want[i, j] = -1 if hit is None else hit
    assert np.array_equal(matrix, want)
    assert np.all(matrix >= 1)
    for cut, whole in zip(stopped, full, strict=True):
        k = cut.iterations_to_target
        assert len(cut.rel_param_error) == k + 1  # the history ends at the crossing
        assert np.array_equal(cut.rel_param_error, whole.rel_param_error[: k + 1])
    assert any(len(whole.rel_param_error) > len(cut.rel_param_error) for cut, whole in zip(stopped, full))


# ---------------------------------------------------------------- theory


def test_theory_verification_small_instance(tmp_path):
    cfg = ExperimentConfig(
        nx=(3,),
        ny=(2,),
        alpha=(1e-2,),
        n_obs=(5,),
        seed=1,
        out_dir=str(tmp_path),
    )
    rows, all_ok = run_theory_verification(cfg)
    assert all_ok
    assert len(rows) == 1
    row = rows[0]
    assert set(row) == {"run-id", "nx", "ny", "n-obs", "alpha", "rho", "report", "pass"}
    assert row["run-id"] == "theory-nx3-ny2-alpha0.01-obs5"
    assert row["pass"] is True
    assert row["rho"] == pytest.approx(0.1)
    rep = row["report"]
    assert rep.sigma_max_e <= 2.0 + 1e-8
    assert rep.cond_e <= rep.bound_cond * (1 + 1e-8)
    lines = (tmp_path / "theory.csv").read_text().splitlines()
    assert lines[0] == (
        "run-id,nx,ny,n-obs,alpha,rho,delta,beta,sigma-min-e,sigma-max-e,cond-e,"
        "bound-sigma-min,bound-cond,sigma-min-y,lambda-min-coercivity,pass"
    )
    assert len(lines) == 2
    assert lines[1].endswith(",true")


def test_theory_verification_grid_size(tmp_path):
    cfg = ExperimentConfig(
        nx=(3, 4),
        ny=(2, 3),
        alpha=(1e-2, 1e-4),
        n_obs=(4, 7),
        seed=6,
        out_dir=str(tmp_path),
    )
    rows, all_ok = run_theory_verification(cfg)
    assert all_ok
    assert len(rows) == 8  # 2 meshes x 2 n_obs x 2 alpha
    assert len({row["run-id"] for row in rows}) == 8


def _theory_grid(out_dir):
    return ExperimentConfig(
        nx=(3, 4),
        ny=(2, 3),
        alpha=(1e-2, 1e-6),
        n_obs=(4, 7),
        seed=3,
        out_dir=str(out_dir),
    )


def _no_fork():
    raise AssertionError("a worker was forked")


def test_theory_pooled_and_serial_agree(tmp_path, monkeypatch):
    # Under pytest numpy loads before the package, so the pool is turned on here.
    monkeypatch.setattr(parallel, "_ONE_BLAS_THREAD", True)
    pooled, pooled_ok = run_theory_verification(_theory_grid(tmp_path / "pooled"))
    # One available core: same job function, run in this process.
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(parallel.os, "fork", _no_fork)
    serial, serial_ok = run_theory_verification(_theory_grid(tmp_path / "serial"))
    assert pooled_ok and serial_ok
    assert pooled == serial
    csv = [(tmp_path / side / "theory.csv").read_bytes() for side in ("pooled", "serial")]
    assert csv[0] == csv[1]


def test_theory_without_blas_cap_runs_serially(tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "_ONE_BLAS_THREAD", True)
    capped, _ = run_theory_verification(_theory_grid(tmp_path / "capped"))
    monkeypatch.setattr(parallel, "_ONE_BLAS_THREAD", False)
    monkeypatch.setattr(parallel.os, "fork", _no_fork)
    uncapped, _ = run_theory_verification(_theory_grid(tmp_path / "uncapped"))
    assert uncapped == capped


def test_theory_worker_error_reaches_caller(tmp_path, monkeypatch, capsys):
    def fail(sys, prec):
        raise NotSpdError(f"preconditioner block P2 is not positive definite at n={sys.n}")

    # Workers are forked after the patch, so they run it too.
    monkeypatch.setattr(harness, "verify_spectral_bounds", fail)
    monkeypatch.setattr(parallel, "_ONE_BLAS_THREAD", True)
    with pytest.raises(NotSpdError, match="block P2 is not positive definite at n=12"):
        run_theory_verification(_theory_grid(tmp_path))
    code = main(["verify-theory", "--out", str(tmp_path), "--set", "nx = 3", "--set", "ny = 2"])
    assert code == EXIT_ERROR
    assert "error: preconditioner block P2 is not positive definite" in capsys.readouterr().err


def test_theory_violation_recorded_per_row(tmp_path, monkeypatch):
    real = harness.verify_spectral_bounds

    def violate(sys, prec):
        raise TheoryViolationError("forced", real(sys, prec))

    monkeypatch.setattr(harness, "verify_spectral_bounds", violate)
    rows, all_ok = run_theory_verification(_theory_grid(tmp_path))
    assert not all_ok
    assert len(rows) == 8 and not any(row["pass"] for row in rows)
    lines = (tmp_path / "theory.csv").read_text().splitlines()[1:]
    assert all(line.endswith(",false") for line in lines)
    code = main(["verify-theory", "--out", str(tmp_path / "cli"), "--set", "nx = 3", "--set", "ny = 2"])
    assert code == EXIT_THEORY_VIOLATION


# ------------------------------------------------------- shared assembly


def _count_assembly(monkeypatch):
    calls = []
    real = harness.assemble_problem

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "assemble_problem", counting)
    return calls


def test_theory_assembles_once_per_mesh_and_obs_count(tmp_path, monkeypatch):
    calls = _count_assembly(monkeypatch)
    cfg = ExperimentConfig(
        nx=(3, 4),
        ny=(2, 3),
        alpha=(1e-2, 1e-4, 1e-6),
        n_obs=(4, 7),
        seed=1,
        out_dir=str(tmp_path),
    )
    rows, _ = run_theory_verification(cfg)
    assert len(rows) == 12
    assert len(calls) == 4  # 2 meshes x 2 n_obs; alpha does not reassemble


def test_theory_forms_btb_once_per_mesh_and_obs_count(tmp_path, monkeypatch):
    calls = []
    triple = kkt._triple_product

    def counting(a, d):
        calls.append(a)
        return triple(a, d)

    def pickled_in_order(fn, jobs):
        # each job reaches its worker pickled, as in a pool
        return [fn(pickle.loads(pickle.dumps(job))) for job in jobs]

    monkeypatch.setattr(kkt, "_triple_product", counting)
    monkeypatch.setattr(harness, "map_in_order", pickled_in_order)
    cfg = ExperimentConfig(
        nx=(10,), ny=(7,), alpha=(1e-2, 1e-4, 1e-6), n_obs=(50,), seed=1, out_dir=str(tmp_path)
    )
    rows, _ = run_theory_verification(cfg)
    assert len(rows) == 3
    assert len(calls) == 1  # B^T B, formed here before the three jobs are sent


def test_sweep_assembles_once_per_obs_count(tmp_path, monkeypatch):
    calls = _count_assembly(monkeypatch)
    cfg = ExperimentConfig(
        nx=(4,),
        ny=(3,),
        alpha=(1.0, 1e-2, 1e-4, 1e-6),
        n_obs=(5, 7, 9),
        seed=1,
        preconditioners=("bdal-lumped-exact",),
        maxit=50,
        out_dir=str(tmp_path),
    )
    matrix = run_reg_data_sweep(cfg)
    assert matrix.shape == (4, 3)
    assert len(calls) == 3  # one per n_obs, shared by the four alphas


def _capture_points(monkeypatch):
    seen = []
    real = harness.assemble_problem

    def capturing(mesh, obs, **kwargs):
        seen.append(obs.points)
        return real(mesh, obs, **kwargs)

    monkeypatch.setattr(harness, "assemble_problem", capturing)
    return seen


@pytest.mark.parametrize("run, n_obs", [(run_mesh_study, (10,)), (run_reg_data_sweep, (5, 9))])
def test_solves_use_the_written_observation_points(tmp_path, monkeypatch, run, n_obs):
    seen = _capture_points(monkeypatch)
    cfg = ExperimentConfig(
        nx=(4, 8),
        ny=(3, 6),
        alpha=(1e-2,),
        n_obs=n_obs,
        seed=5,
        preconditioners=("bdal-lumped-exact",),
        maxit=50,
        out_dir=str(tmp_path),
    )
    run(cfg)
    assert len(seen) == 2  # two mesh rungs, or two observation counts
    for points in seen:
        path = tmp_path / f"observations-n{len(points)}.txt"
        assert np.array_equal(points, read_observations(str(path), cfg.lx, cfg.ly).points)


def test_theory_writes_each_observation_file_once(tmp_path, monkeypatch):
    written = []
    real = harness.write_observations

    def recording(path, obs):
        written.append(os.path.basename(path))
        real(path, obs)

    monkeypatch.setattr(harness, "write_observations", recording)
    rows, _ = run_theory_verification(_theory_grid(tmp_path))
    assert len(rows) == 8  # 2 meshes x 2 n_obs x 2 alpha
    assert sorted(written) == ["observations-n4.txt", "observations-n7.txt"]


# ------------------------------------------------------------------ golden

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


_REGENERATE = "if intended, regenerate results/ with: PYTHONPATH=src python scripts/run_all.py"
_THEORY_EXACT_COLUMNS = {"run-id", "nx", "ny", "n-obs", "alpha", "rho", "pass"}


def _assert_theory_csv_close(got: bytes, want: bytes) -> None:
    # The measured columns come from dense LAPACK eigensolves, whose last
    # digits may differ between machines; every other column is exact.
    got_rows = [line.split(",") for line in got.decode().splitlines()]
    want_rows = [line.split(",") for line in want.decode().splitlines()]
    header = want_rows[0]
    assert got_rows[0] == header
    assert len(got_rows) == len(want_rows)
    for g, w in zip(got_rows[1:], want_rows[1:]):
        assert len(g) == len(header)
        for column, a, b in zip(header, g, w):
            if column in _THEORY_EXACT_COLUMNS:
                assert a == b, (w[0], column, _REGENERATE)
            else:
                assert float(a) == pytest.approx(float(b), rel=1e-9, abs=0.0), (
                    w[0], column, _REGENERATE)


@pytest.mark.parametrize(
    "command, config",
    [
        ("mesh-study", "mesh-study.cfg"),
        ("convergence", "benchmark.cfg"),
        ("sweep", "sweep.cfg"),
        ("verify-theory", "theory.cfg"),
    ],
)
def test_checked_in_results_reproduced(tmp_path, capsys, command, config):
    # Rerun-against-rerun identity cannot see a change that shifts every
    # run the same way; the checked-in results can.
    config_path = os.path.join(_REPO, "configs", config)
    assert main([command, "--config", config_path, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    golden = os.path.join(_REPO, load_config(config_path).out_dir)
    assert sorted(os.listdir(tmp_path)) == sorted(os.listdir(golden)), _REGENERATE
    for name in os.listdir(golden):
        with open(os.path.join(golden, name), "rb") as f:
            want = f.read()
        if name == "theory.csv":
            _assert_theory_csv_close((tmp_path / name).read_bytes(), want)
        else:
            assert (tmp_path / name).read_bytes() == want, f"{golden}/{name} differs; {_REGENERATE}"
