"""Experiment configuration: a flat key=value file format plus overrides.

Lines are `key = value`; `#` starts a comment (full-line or trailing);
blank lines are ignored. Command-line overrides use the same key=value
strings and win over the file. Unknown keys are rejected.

ExperimentConfig declares every key once: its field's annotation picks
the parser. A tuple key takes comma-separated entries, each stripped (an
empty value is the empty tuple); an optional key left empty is None,
except rho, whose None is spelled sqrt-alpha.

The module imports only the standard library, so loading a config loads
neither numpy nor scipy. The solver-kind names and the FEM defaults live
here for that reason, and every module imports them from here.
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

DEFAULT_REG_SHIFT = 0.1
DEFAULT_NITSCHE_GAMMA = 10.0


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
    # Not a field: read by no preconditioner and rejected in config files
    # and overrides; kept for the benchmark's traced replica, which still
    # passes it to build_preconditioner.
    inner_tol = 1e-2
    reg_shift: float = DEFAULT_REG_SHIFT
    nitsche_gamma: float = DEFAULT_NITSCHE_GAMMA
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
    lowered = raw.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


_FIELDS = {f.name: f for f in fields(ExperimentConfig)}
_SCALARS = {"float": float, "int": int, "str": str, "bool": _parse_bool}


def _parse_value(name: str, raw: str):
    """raw parsed by the annotation of field name: X, X | None or
    tuple[X, ...] for X in _SCALARS."""
    raw, kind = raw.strip(), _FIELDS[name].type
    if kind.endswith(" | None"):
        kind = kind.removesuffix(" | None")
        if raw == ("sqrt-alpha" if name == "rho" else ""):
            return None
    try:
        if kind.startswith("tuple["):
            item = _SCALARS[kind.removeprefix("tuple[").removesuffix(", ...]")]
            return tuple(item(v.strip()) for v in raw.split(",")) if raw else ()
        return _SCALARS[kind](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {exc}") from exc


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
        if key not in _FIELDS:
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
