"""Experiment configuration: a flat key=value file format plus overrides.

Lines are `key = value`; `#` starts a comment (full-line or trailing);
blank lines are ignored. List-valued keys take comma-separated entries.
Command-line overrides use the same key=value strings and win over the
file. Unknown keys are rejected.

The module imports only the standard library, so loading a config loads
neither numpy nor scipy. The solver-kind names live here for that reason,
and every module imports them from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

BDAL_EXACT = "bdal-exact"
BDAL_LUMPED_EXACT = "bdal-lumped-exact"
BDAL_LUMPED_INEXACT = "bdal-lumped-inexact"
REDUCED_REGULARIZATION = "reduced-regularization"

BDAL_KINDS = (BDAL_EXACT, BDAL_LUMPED_EXACT, BDAL_LUMPED_INEXACT)
PRECONDITIONER_KINDS = BDAL_KINDS + (REDUCED_REGULARIZATION,)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    lx: float = 1.45
    ly: float = 1.0
    nx: tuple[int, ...] = (29,)
    ny: tuple[int, ...] = (20,)
    alpha: tuple[float, ...] = (1e-6,)
    rho: float | None = None  # None means sqrt(alpha), per instance
    n_obs: tuple[int, ...] = (500,)
    seed: int = 1
    source: str = "synthetic"  # or a path to a PGM image
    preconditioners: tuple[str, ...] = (BDAL_LUMPED_EXACT,)
    tol: float = 1e-10
    maxit: int = 200
    out_dir: str = "results"
    # Read by no preconditioner and rejected in config files and overrides;
    # kept, with its range check, for the benchmark's traced replica, which
    # still passes it to build_preconditioner.
    inner_tol: float = 1e-2
    reg_shift: float = 0.1
    nitsche_gamma: float = 10.0
    target_error: float = 1e-5
    snapshot_iters: tuple[int, ...] = ()
    timing: bool = False
    obs_file: str | None = None

    def __post_init__(self):
        for name in ("lx", "ly", "alpha", "rho", "reg_shift", "nitsche_gamma"):
            value = getattr(self, name)
            entries = value if isinstance(value, tuple) else (value,)
            if value is not None and not all(math.isfinite(v) for v in entries):
                raise ConfigError(f"{name} must be finite, got {value}")
        if not (self.lx > 0 and self.ly > 0):
            raise ConfigError("domain extents must be positive")
        for name in ("nx", "ny", "alpha", "n_obs", "preconditioners"):
            if len(getattr(self, name)) == 0:
                raise ConfigError(f"{name} must be a nonempty list")
        if len(self.nx) != len(self.ny):
            raise ConfigError("nx and ny lists must have equal length")
        if any(v < 1 for v in self.nx + self.ny):
            raise ConfigError("mesh cell counts must be >= 1")
        if any(a <= 0 for a in self.alpha):
            raise ConfigError("alpha values must be positive")
        if self.rho is not None and self.rho <= 0:
            raise ConfigError("rho must be positive (or sqrt-alpha)")
        if any(n < 1 for n in self.n_obs):
            raise ConfigError("observation counts must be >= 1")
        if not (0.0 < self.tol < 1.0):
            raise ConfigError("tol must lie in (0, 1)")
        if not (0.0 < self.inner_tol < 1.0):
            raise ConfigError("inner_tol must lie in (0, 1)")
        if self.maxit < 1:
            raise ConfigError("maxit must be >= 1")
        if any(k < 0 for k in self.snapshot_iters):
            raise ConfigError("snapshot iterations must be >= 0")
        for k in self.snapshot_iters:
            if k > self.maxit:
                raise ConfigError(f"snapshot_iters entry {k} exceeds maxit = {self.maxit}")
        if not (0.0 < self.target_error < 1.0):
            raise ConfigError("target_error must lie in (0, 1)")
        if self.reg_shift <= 0:
            raise ConfigError("reg_shift must be positive")
        if self.nitsche_gamma <= 0:
            raise ConfigError("nitsche_gamma must be positive")
        for kind in self.preconditioners:
            if kind not in PRECONDITIONER_KINDS:
                raise ConfigError(
                    f"unknown preconditioner {kind!r}; choose from {PRECONDITIONER_KINDS}"
                )

    def rho_for(self, alpha: float) -> float:
        return self.rho if self.rho is not None else default_rho(alpha)


def default_rho(alpha: float) -> float:
    """The default augmented-Lagrangian weight, sqrt(alpha), correctly
    rounded. The one rule behind both the config's sqrt-alpha and
    build_preconditioner's rho=None: alpha ** 0.5 (libm pow) can differ
    from it in the last bit."""
    return math.sqrt(alpha)


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _parse_value(name: str, raw: str):
    raw = raw.strip()
    try:
        if name in ("lx", "ly", "tol", "reg_shift", "nitsche_gamma", "target_error"):
            return float(raw)
        if name in ("seed", "maxit"):
            return int(raw)
        if name in ("nx", "ny", "n_obs"):
            return tuple(int(v) for v in raw.split(","))
        if name == "snapshot_iters":
            return tuple(int(v) for v in raw.split(",")) if raw else ()
        if name == "alpha":
            return tuple(float(v) for v in raw.split(","))
        if name == "preconditioners":
            return tuple(v.strip() for v in raw.split(","))
        if name == "rho":
            return None if raw == "sqrt-alpha" else float(raw)
        if name == "timing":
            return _parse_bool(raw)
        if name == "obs_file":
            return raw or None
        if name in ("source", "out_dir"):
            return raw
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {exc}") from exc
    raise ConfigError(f"unknown config key {name!r}")


_FIELD_NAMES = {f.name for f in fields(ExperimentConfig)}


def parse_assignments(lines, origin: str = "<config>") -> dict:
    """key=value lines to a {field: parsed value} dict."""
    values = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{origin}:{lineno}: expected key=value, got {stripped!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key == "inner_tol":
            raise ConfigError(
                f"{origin}:{lineno}: inner_tol is retired: bdal-lumped-inexact applies "
                "one fixed multigrid cycle per block, not an inner solve to a tolerance"
            )
        if key not in _FIELD_NAMES:
            raise ConfigError(f"{origin}:{lineno}: unknown config key {key!r}")
        values[key] = _parse_value(key, raw)
    return values


def load_config(path: str | None, overrides: list[str] | None = None, **direct) -> ExperimentConfig:
    """Build a config from an optional file, CLI overrides, then direct kwargs."""
    values: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as handle:
            values.update(parse_assignments(handle, origin=path))
    if overrides:
        values.update(parse_assignments(overrides, origin="<override>"))
    values.update({k: v for k, v in direct.items() if v is not None})
    return ExperimentConfig(**values)
