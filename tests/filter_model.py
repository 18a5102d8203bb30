"""Diagonal spectral-filter model of source inversion: the closed forms
that acceptance criteria 2 and 6 check against exact eigenvalues.

The forward map and the regularizer are taken to share a basis in which
they act diagonally with singular values d_k (descending, zero-padded past
the number of observations) and r_k. The assembled operators do not share
one, so these closed forms check the theory's algebra, not an instance.
Regularization is appropriate when d_k^2 + alpha r_k^2 >= c_under > 0 (no
under-regularized mode) and d_k r_k <= c_over < inf (no over-regularized
mode). These two scalars yield closed-form arithmetic-geometric-mean
constants
    delta = 1/2 * (1 + (alpha/rho^2) * c_over^2)^(-1)
    beta  = (1 + c_under/rho)^(-1/2).
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from kktprec.spectral import AmGmConstants


class AssumptionViolationError(ValueError):
    """A mode violates the appropriate-regularization assumption."""

    def __init__(self, message: str, mode: int):
        super().__init__(message)
        self.mode = mode


@dataclass(frozen=True)
class SpectralFilterModel:
    """Diagonalized problem: forward singular values (descending, possibly
    zero-padded) and regularizer singular values, plus alpha and rho."""

    forward_sv: np.ndarray
    reg_sv: np.ndarray
    alpha: float
    rho: float

    def __post_init__(self):
        d = np.asarray(self.forward_sv, dtype=np.float64)
        r = np.asarray(self.reg_sv, dtype=np.float64)
        if d.ndim != 1 or d.shape != r.shape or d.size == 0:
            raise ValueError("forward and regularizer sequences must be equal-length 1-D")
        if np.any(d < 0.0) or np.any(r < 0.0):
            raise ValueError("singular values must be nonnegative")
        if np.any(np.diff(d) > 1e-15):
            raise ValueError("forward singular values must be nonincreasing")
        if not (self.alpha >= 0.0):
            raise ValueError("alpha must be nonnegative")
        if not (self.rho > 0.0):
            raise ValueError("rho must be positive")
        object.__setattr__(self, "forward_sv", d)
        object.__setattr__(self, "reg_sv", r)
        d.flags.writeable = False
        r.flags.writeable = False

    @property
    def n_modes(self) -> int:
        return self.forward_sv.size


def amgm_constants_from_filter(
    m: SpectralFilterModel, c_under: float, c_over: float
) -> AmGmConstants:
    """Closed-form constants from the appropriate-regularization scalars.

    Validates per mode that d_k^2 + alpha r_k^2 >= c_under and
    d_k r_k <= c_over, reporting the worst offending mode index.
    """
    d = m.forward_sv
    r = m.reg_sv
    lower = d * d + m.alpha * (r * r)
    slack_lo = 1e-12 * max(1.0, abs(c_under))
    if np.any(lower < c_under - slack_lo):
        k = int(np.argmin(lower - c_under))
        raise AssumptionViolationError(
            f"mode {k}: d^2 + alpha r^2 = {lower[k]:.6e} < c_under = {c_under:.6e}",
            mode=k,
        )
    overlap = d * r
    slack_hi = 1e-12 * max(1.0, abs(c_over))
    if np.any(overlap > c_over + slack_hi):
        k = int(np.argmax(overlap - c_over))
        raise AssumptionViolationError(
            f"mode {k}: d * r = {overlap[k]:.6e} > c_over = {c_over:.6e}", mode=k
        )
    delta = 0.5 / (1.0 + (m.alpha / m.rho**2) * c_over**2)
    beta = 1.0 / math.sqrt(1.0 + c_under / m.rho)
    return AmGmConstants(delta=delta, beta=beta)


def amgm_constants_exact(m: SpectralFilterModel) -> AmGmConstants:
    """Exact constants of the damped projectors for a diagonal model.

    Both projectors act diagonally with eigenvalues
    (alpha r_k^2 / rho + 1)^(-1) and (d_k^2 / rho + 1)^(-1), so the extrema
    are per-mode minima and maxima.
    """
    reg_eigs = 1.0 / (m.alpha * m.reg_sv**2 / m.rho + 1.0)
    data_eigs = 1.0 / (m.forward_sv**2 / m.rho + 1.0)
    delta = 0.5 * float(np.min(reg_eigs + data_eigs))
    beta = float(np.sqrt(np.max(reg_eigs * data_eigs)))
    return AmGmConstants(delta=delta, beta=beta)


def stability_sigma_max(a: float, b: float, c: float) -> float:
    """Largest singular value, in closed form, of the 2x2 stability matrix

        [ 1/a            (1 + b/a)/c        ]
        [ (1 + b/a)/c    (b/c^2)(1 + b/a)   ]

    for a, b, c > 0. The inf-sup machinery uses it with a = 1 - beta, b = 1,
    c^2 = 2 delta to turn coercivity and coupling bounds into sigma_min(E).
    """
    if not (a > 0.0 and b > 0.0 and c > 0.0):
        raise ValueError("a, b, c must be positive")
    root = math.sqrt(
        b**4
        + 2.0 * b**3 * a
        + b**2 * a**2
        + 2.0 * b**2 * c**2
        + 6.0 * b * a * c**2
        + 4.0 * a**2 * c**2
        + c**4
    )
    return (b * a + b**2 + c**2 + root) / (2.0 * a * c**2)


def laplacian_source_model(
    n_modes: int,
    n_obs: int,
    eigenvalue_law: Callable[[int], float],
    alpha: float = 1.0,
    rho: float | None = None,
) -> SpectralFilterModel:
    """Diagonal model of source inversion through an elliptic operator.

    Mode k (1-based) carries operator eigenvalue lambda_k from the law;
    the forward map inverts the operator and sees only the first n_obs
    modes, so d_k = 1/lambda_k there and 0 beyond, while the regularizer
    has r_k = lambda_k. The product d_k r_k is exactly 1 on observed modes.
    """
    if n_modes < 1 or not (0 <= n_obs <= n_modes):
        raise ValueError("need n_modes >= 1 and 0 <= n_obs <= n_modes")
    lam = np.array([float(eigenvalue_law(k)) for k in range(1, n_modes + 1)])
    if np.any(lam <= 0.0):
        raise ValueError("eigenvalue law must be positive")
    if np.any(np.diff(lam) <= 0.0):
        raise ValueError("eigenvalue law must be strictly increasing")
    d = np.zeros(n_modes)
    d[:n_obs] = 1.0 / lam[:n_obs]
    if rho is None:
        rho = math.sqrt(alpha) if alpha > 0 else 1.0
    return SpectralFilterModel(forward_sv=d, reg_sv=lam, alpha=alpha, rho=rho)
