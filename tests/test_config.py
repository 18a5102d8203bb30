import math
from dataclasses import fields
from pathlib import Path

import pytest

from kktprec import ConfigError, ExperimentConfig, load_config
from kktprec.config import parse_assignments


def test_defaults():
    cfg = ExperimentConfig()
    assert cfg.lx == 1.45 and cfg.ly == 1.0
    assert cfg.nx == (29,) and cfg.ny == (20,)
    assert cfg.alpha == (1e-6,)
    assert cfg.rho is None  # sqrt-alpha policy
    assert cfg.preconditioners == ("bdal-lumped-exact",)
    assert cfg.seed == 1


def test_rho_policy():
    cfg = ExperimentConfig()
    assert cfg.rho_for(1e-6) == math.sqrt(1e-6)
    fixed = ExperimentConfig(rho=0.25)
    assert fixed.rho_for(1e-6) == 0.25


def test_parse_assignments_basic():
    values = parse_assignments([
        "alpha = 1e-2, 1e-4   # grid",
        "nx = 4,8",
        "ny = 3,6",
        "# full-line comment",
        "",
        "timing = yes",
        "rho = sqrt-alpha",
        "out_dir = runs/a",
    ])
    assert values["alpha"] == (1e-2, 1e-4)
    assert values["nx"] == (4, 8)
    assert values["timing"] is True
    assert values["rho"] is None
    assert values["out_dir"] == "runs/a"


def test_parse_assignments_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_assignments(["mystery = 3"])


def test_parse_assignments_rejects_bad_syntax():
    with pytest.raises(ConfigError, match="expected key=value"):
        parse_assignments(["just some words"])


def test_parse_assignments_rejects_bad_value():
    with pytest.raises(ConfigError):
        parse_assignments(["alpha = banana"])
    with pytest.raises(ConfigError):
        parse_assignments(["timing = maybe"])


def test_validation_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig(lx=-1.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(nx=(2, 4), ny=(3,))
    with pytest.raises(ConfigError):
        ExperimentConfig(alpha=(0.0,))
    with pytest.raises(ConfigError):
        ExperimentConfig(alpha=())
    with pytest.raises(ConfigError):
        ExperimentConfig(tol=1.5)
    with pytest.raises(ConfigError):
        ExperimentConfig(maxit=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(preconditioners=("bdal-extra",))
    with pytest.raises(ConfigError):
        ExperimentConfig(rho=-0.5)
    with pytest.raises(ConfigError, match="snapshot iterations"):
        load_config(None, overrides=["snapshot_iters = -3"])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("key", ["lx", "ly", "alpha", "rho", "reg_shift", "nitsche_gamma"])
def test_nonfinite_values_rejected_by_name(key, value):
    # every alpha entry is checked, not only the first
    for entry in [(value,), (1e-6, value)] if key == "alpha" else [value]:
        with pytest.raises(ConfigError, match=f"^{key} must be finite"):
            ExperimentConfig(**{key: entry})


def test_snapshot_past_maxit_rejected():
    with pytest.raises(ConfigError, match="snapshot_iters entry 500 exceeds maxit = 200"):
        load_config(None, overrides=["maxit = 200", "snapshot_iters = 0, 500"])
    assert load_config(None, overrides=["maxit = 200", "snapshot_iters = 0, 200"]).snapshot_iters == (0, 200)


def test_load_config_file_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("alpha = 1e-4\nseed = 9\nnx = 8\nny = 6\n")
    cfg = load_config(str(path), overrides=["seed = 11", "tol = 1e-8"])
    assert cfg.alpha == (1e-4,)
    assert cfg.seed == 11  # override wins over the file
    assert cfg.tol == 1e-8
    assert cfg.nx == (8,)


def test_load_config_direct_kwargs(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 3\n")
    cfg = load_config(str(path), overrides=None, seed=77, out_dir="elsewhere")
    assert cfg.seed == 77
    assert cfg.out_dir == "elsewhere"


def test_load_config_no_file():
    cfg = load_config(None, overrides=["nx = 5", "ny = 5"])
    assert cfg.nx == (5,)


def test_inner_tol_is_retired(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 3\ninner_tol = 1e-3\n")
    with pytest.raises(ConfigError, match=r"run.cfg:2: inner_tol is retired: .*multigrid cycle"):
        load_config(str(path))
    with pytest.raises(ConfigError, match=r"<override>:1: inner_tol is retired: .*multigrid cycle"):
        load_config(None, overrides=["inner_tol = 1e-3"])
    # Not a field: a class attribute, kept for the benchmark's replica.
    assert "inner_tol" not in {f.name for f in fields(ExperimentConfig)}
    assert ExperimentConfig.inner_tol == ExperimentConfig().inner_tol == 1e-2
    with pytest.raises(TypeError):
        ExperimentConfig(inner_tol=2.0)


# A `key = value` spelling of every ExperimentConfig field and its value.
PARSED = {
    "lx": ("2.5", 2.5),
    "ly": ("0.5", 0.5),
    "nx": ("4, 8", (4, 8)),
    "ny": (" 3 ,6 ", (3, 6)),
    "alpha": ("1e-2,1e-4", (1e-2, 1e-4)),
    "rho": ("0.25", 0.25),
    "n_obs": ("50", (50,)),
    "seed": ("7", 7),
    "source": ("image.pgm", "image.pgm"),
    "preconditioners": (" bdal-exact,reduced-regularization ", ("bdal-exact", "reduced-regularization")),
    "tol": ("1e-8", 1e-8),
    "maxit": ("50", 50),
    "out_dir": ("runs/a", "runs/a"),
    "reg_shift": ("0.2", 0.2),
    "nitsche_gamma": ("20", 20.0),
    "target_error": ("1e-4", 1e-4),
    "snapshot_iters": ("0, 5", (0, 5)),
    "timing": ("on", True),
    "obs_file": ("obs.txt", "obs.txt"),
}


@pytest.mark.parametrize("key", [f.name for f in fields(ExperimentConfig)])
def test_every_key_parses_by_its_field(key):
    raw, expected = PARSED[key]
    # repr compares the types too: 20.0, not 20; (4, 8), not (4.0, 8.0)
    assert repr(parse_assignments([f"{key} = {raw}"])[key]) == repr(expected)


@pytest.mark.parametrize(
    "line, key, expected",
    [
        ("rho = sqrt-alpha", "rho", None),
        ("obs_file =", "obs_file", None),
        ("snapshot_iters =", "snapshot_iters", ()),
        ("preconditioners = a, b", "preconditioners", ("a", "b")),
    ],
)
def test_edge_spellings(line, key, expected):
    assert parse_assignments([line]) == {key: expected}


@pytest.mark.parametrize("line", ["rho =", "nx =", "alpha = 1e-2,,1e-4", "timing = maybe", "seed = 1.5"])
def test_rejected_spellings(line):
    with pytest.raises(ConfigError):
        load_config(None, overrides=[line])


def test_readme_names_every_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme[readme.index("Configuration keys") :].split("\n\n", 1)[0]
    assert [f.name for f in fields(ExperimentConfig) if f"`{f.name}`" not in paragraph] == []
