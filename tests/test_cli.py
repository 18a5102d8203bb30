"""CLI behavior: subcommand smoke runs, option precedence, exit codes."""

import csv
import os
from types import SimpleNamespace

import numpy as np

from kktprec import harness
from kktprec.cli import EXIT_ERROR, EXIT_OK, EXIT_THEORY_VIOLATION, main
from kktprec.formats import read_observations, read_pgm

TINY = [
    "--set", "nx = 4",
    "--set", "ny = 3",
    "--set", "alpha = 1e-2",
    "--set", "n_obs = 5",
    "--set", "preconditioners = bdal-lumped-exact",
    "--set", "tol = 1e-9",
    "--set", "maxit = 150",
]


def test_gen_obs_writes_file(tmp_path, capsys):
    out = str(tmp_path)
    code = main(["gen-obs", "--out", out, "--seed", "4", "--set", "n_obs = 7"])
    assert code == EXIT_OK
    path = os.path.join(out, "observations-n7.txt")
    assert capsys.readouterr().out.strip() == path
    obs = read_observations(path, 1.45, 1.0)
    assert obs.n_obs == 7


def test_gen_obs_reruns_byte_identical(tmp_path):
    args = ["gen-obs", "--seed", "8", "--set", "n_obs = 11"]
    p1 = tmp_path / "a"
    p2 = tmp_path / "b"
    assert main(args + ["--out", str(p1)]) == EXIT_OK
    assert main(args + ["--out", str(p2)]) == EXIT_OK
    name = "observations-n11.txt"
    assert (p1 / name).read_bytes() == (p2 / name).read_bytes()


def test_gen_obs_seed_changes_points(tmp_path):
    p1 = tmp_path / "a"
    p2 = tmp_path / "b"
    main(["gen-obs", "--seed", "1", "--set", "n_obs = 6", "--out", str(p1)])
    main(["gen-obs", "--seed", "2", "--set", "n_obs = 6", "--out", str(p2)])
    name = "observations-n6.txt"
    assert (p1 / name).read_bytes() != (p2 / name).read_bytes()


def test_synth_source_writes_readable_pgm(tmp_path, capsys):
    out = str(tmp_path)
    code = main(["synth-source", "--out", out, "--set", "nx = 6", "--set", "ny = 5"])
    assert code == EXIT_OK
    path = os.path.join(out, "source-nx6-ny5.pgm")
    assert capsys.readouterr().out.strip() == path
    img = read_pgm(path)
    assert img.shape == (6, 7)
    assert img.max() == 255
    raw = open(path).read()
    assert "synthetic source" in raw


def test_convergence_smoke(tmp_path, capsys):
    out = str(tmp_path)
    code = main(["convergence", "--out", out] + TINY)
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "minres-bdal-lumped-exact-nx4-ny3-alpha0.01-obs5: target at iteration" in text
    assert os.path.exists(os.path.join(out, "convergence.csv"))


def test_mesh_study_smoke(tmp_path, capsys):
    out = str(tmp_path)
    code = main(
        [
            "mesh-study", "--out", out,
            "--set", "nx = 3, 5",
            "--set", "ny = 2, 4",
            "--set", "alpha = 1e-2",
            "--set", "n_obs = 6",
            "--set", "preconditioners = bdal-lumped-exact",
            "--set", "maxit = 200",
        ]
    )
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert text.count("iters-to-target=") == 2
    assert os.path.exists(os.path.join(out, "mesh-study.csv"))


def test_mesh_study_single_mesh_is_error(tmp_path, capsys):
    code = main(["mesh-study", "--out", str(tmp_path)] + TINY)
    assert code == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_sweep_smoke(tmp_path, capsys):
    out = str(tmp_path)
    code = main(
        [
            "sweep", "--out", out,
            "--set", "nx = 4",
            "--set", "ny = 3",
            "--set", "alpha = 1.0, 1e-2",
            "--set", "n_obs = 5, 8",
            "--set", "preconditioners = bdal-lumped-exact",
            "--set", "maxit = 200",
        ]
    )
    assert code == EXIT_OK
    assert "sweep matrix (2 alphas x 2 sizes):" in capsys.readouterr().out
    assert os.path.exists(os.path.join(out, "sweep.csv"))


def test_verify_theory_smoke(tmp_path, capsys):
    out = str(tmp_path)
    code = main(
        [
            "verify-theory", "--out", out,
            "--set", "nx = 3",
            "--set", "ny = 2",
            "--set", "alpha = 1e-2",
            "--set", "n_obs = 4",
        ]
    )
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert ": ok cond(E)=" in text
    assert os.path.exists(os.path.join(out, "theory.csv"))


def test_verify_theory_violation_exit_code(tmp_path, capsys, monkeypatch):
    # No honest instance violates a bound that says something, so a
    # violation's output is exercised by stubbing the verification result.
    row = {
        "run-id": "theory-stub",
        "pass": False,
        "report": SimpleNamespace(cond_e=10.0, bound_cond=5.0),
    }
    monkeypatch.setattr(harness, "run_theory_verification", lambda cfg: ([row], False))
    code = main(["verify-theory", "--out", str(tmp_path)])
    assert code == EXIT_THEORY_VIOLATION
    assert "theory-stub: VIOLATION cond(E)=10" in capsys.readouterr().out


def test_verify_theory_records_a_vacuous_instance_and_continues(tmp_path, capsys):
    # On this mesh rounding measures beta = 1.000000001 at alpha 1e-24, so
    # the bounds are vacuous there; that row fails and the other is kept.
    out = str(tmp_path)
    code = main(
        [
            "verify-theory", "--out", out,
            "--set", "nx = 6",
            "--set", "ny = 4",
            "--set", "alpha = 1e-2, 1e-24",
            "--set", "n_obs = 20",
        ]
    )
    assert code == EXIT_THEORY_VIOLATION
    assert "alpha1e-24-obs20: VIOLATION" in capsys.readouterr().out
    with open(os.path.join(out, "theory.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert [row["pass"] for row in rows] == ["true", "false"]
    assert [row["bound-cond"] == "inf" for row in rows] == [False, True]


def test_missing_config_file_is_error(tmp_path, capsys):
    code = main(["gen-obs", "--config", str(tmp_path / "nope.cfg")])
    assert code == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_unknown_set_key_is_error(capsys):
    code = main(["gen-obs", "--set", "granularity = 3"])
    assert code == EXIT_ERROR
    assert "unknown config key" in capsys.readouterr().err


def test_retired_inner_tol_set_is_error(capsys):
    code = main(["gen-obs", "--set", "inner_tol = 1e-3"])
    assert code == EXIT_ERROR
    assert "inner_tol is retired" in capsys.readouterr().err


def test_invalid_set_value_is_error(capsys):
    code = main(["gen-obs", "--set", "alpha = -1"])
    assert code == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_nonfinite_set_value_is_error(tmp_path, capsys):
    code = main(["mesh-study", "--set", "alpha = nan", "--out", str(tmp_path)])
    assert code == EXIT_ERROR
    assert "alpha must be finite" in capsys.readouterr().err


def test_set_overrides_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_obs = 5\nseed = 3\n")
    out = str(tmp_path / "out")
    code = main(
        ["gen-obs", "--config", str(cfg), "--out", out, "--set", "n_obs = 9"]
    )
    assert code == EXIT_OK
    assert os.path.exists(os.path.join(out, "observations-n9.txt"))


def test_seed_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_obs = 6\nseed = 1\n")
    p1 = tmp_path / "a"
    p2 = tmp_path / "b"
    main(["gen-obs", "--config", str(cfg), "--out", str(p1)])
    main(["gen-obs", "--config", str(cfg), "--seed", "2", "--out", str(p2)])
    name = "observations-n6.txt"
    a = read_observations(str(p1 / name), 1.45, 1.0).points
    b = read_observations(str(p2 / name), 1.45, 1.0).points
    assert not np.array_equal(a, b)
    ref = harness.generate_observations(2, 6, 1.45, 1.0).points
    assert np.array_equal(b, ref)
