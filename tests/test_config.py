import math

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


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("key", ["lx", "ly", "alpha", "rho", "reg_shift", "nitsche_gamma"])
def test_nonfinite_values_rejected_by_name(key, value):
    kwargs = {key: (value,) if key == "alpha" else value}
    with pytest.raises(ConfigError, match=f"^{key} must be finite"):
        ExperimentConfig(**kwargs)


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
    # The field and its range check stay for callers that pass it directly.
    assert ExperimentConfig().inner_tol == 1e-2
    with pytest.raises(ConfigError, match="inner_tol must lie"):
        ExperimentConfig(inner_tol=2.0)
