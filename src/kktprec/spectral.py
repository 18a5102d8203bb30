"""Spectral analysis of the preconditioned KKT operator.

Two views of the same constants:

* Filter view. The forward map and the regularizer share a basis in which
  they act diagonally with singular values d_k (descending, zero-padded
  past the number of observations) and r_k. Regularization is appropriate
  when d_k^2 + alpha r_k^2 >= c_under > 0 (no under-regularized mode) and
  d_k r_k <= c_over < inf (no over-regularized mode). These two scalars
  yield closed-form arithmetic-geometric-mean constants
      delta = 1/2 * (1 + (alpha/rho^2) * c_over^2)^(-1)
      beta  = (1 + c_under/rho)^(-1/2).

* Operator view. For an assembled system the damped projectors
      Q_reg  = F F^T,  F = third-block scaling of the parameter coupling,
      Q_data = G G^T,  G = third-block scaling of the PDE coupling,
  give the exact constants delta = 1/2 lambda_min(Q_reg + Q_data) and
  beta = sqrt(lambda_max(Q_reg Q_data)). The preconditioned operator
  E = P^(-1/2) K P^(-1/2) then provably satisfies
      sigma_max(E) <= 2
      sigma_min(E) >= (1-beta) delta / (1+sqrt(2))
      cond(E)      <= (2+2 sqrt(2)) / ((1-beta) delta)
  along with sigma_min([F G]) >= sqrt(2 delta) and coercivity
  lambda_min(X + Y^T Y) >= 1 - beta for the diagonal part X and coupling Y.
verify_spectral_bounds checks all five numerically on dense assemblies,
with E formed as the block-Cholesky congruence L^(-1) K L^(-T), P = L L^T:
it differs from P^(-1/2) K P^(-1/2) by an orthogonal block-diagonal factor,
so it has the same spectrum, and F and G the same singular values.

For the exact BDAL preconditioner the last two checks hold with equality.
Y = [F G] gives Y Y^T = Q_reg + Q_data, so sigma_min(Y)^2 = 2 delta; and
X + Y^T Y = [[I, F^T G], [G^T F, I]] has lambda_min = 1 - sigma_max(F^T G)
= 1 - beta. On assembled instances they therefore test rounding (gaps of
about 1e-15 and 5e-14 relative on the theory grid), not the theory; they
stay as consistency checks on the measured delta and beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cholesky, solve_triangular

from .kkt import BDAL_EXACT, KktSystem, Preconditioner


class AssumptionViolationError(ValueError):
    """A mode violates the appropriate-regularization assumption."""

    def __init__(self, message: str, mode: int):
        super().__init__(message)
        self.mode = mode

    def __reduce__(self):
        return type(self), (*self.args, self.mode)


class IllPosedModeError(ValueError):
    """d_k and alpha*r_k^2 both vanish for some mode."""


class TheoryViolationError(RuntimeError):
    """A provable spectral bound failed numerically beyond slack."""

    def __init__(self, message: str, report: "ConditionReport"):
        super().__init__(message)
        self.report = report

    def __reduce__(self):
        return type(self), (*self.args, self.report)


class NotSpdError(ValueError):
    """Cholesky failed: a preconditioner block is not symmetric positive
    definite."""


class DeskScaleError(ValueError):
    """Dense spectral verification refused above the size ceiling."""


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


@dataclass(frozen=True)
class AmGmConstants:
    """delta in (0, 1], beta in [0, 1]; the bounds are vacuous at beta = 1."""

    delta: float
    beta: float


@dataclass(frozen=True)
class ConditionReport:
    sigma_min_e: float
    sigma_max_e: float
    cond_e: float
    delta: float
    beta: float
    bound_sigma_min: float
    bound_cond: float
    sigma_min_y: float
    lambda_min_coercivity: float


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


def cond_bound(c: AmGmConstants) -> float:
    """Provable condition-number bound (2 + 2 sqrt(2)) / ((1-beta) delta)."""
    if not (c.beta < 1.0):
        raise ValueError("condition bound requires beta < 1")
    if not (c.delta > 0.0):
        raise ValueError("condition bound requires delta > 0")
    return (2.0 + 2.0 * math.sqrt(2.0)) / ((1.0 - c.beta) * c.delta)


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


def sigma_min_bound(c: AmGmConstants) -> float:
    """Provable lower bound (1-beta) delta / (1+sqrt(2)) on sigma_min(E)."""
    return (1.0 - c.beta) * c.delta / (1.0 + math.sqrt(2.0))


def reconstruction_error_modes(
    m: SpectralFilterModel, true_coeffs: np.ndarray, noise_coeffs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode split of the regularized reconstruction error.

    Returns (noise propagation, regularization bias):
        e_noise_k = -d_k / (d_k^2 + alpha r_k^2) * zeta_k
        e_bias_k  = alpha r_k^2 / (d_k^2 + alpha r_k^2) * q_k
    Raises IllPosedModeError when a denominator vanishes.
    """
    q = np.asarray(true_coeffs, dtype=np.float64)
    zeta = np.asarray(noise_coeffs, dtype=np.float64)
    if q.shape != (m.n_modes,) or zeta.shape != (m.n_modes,):
        raise ValueError("coefficient lengths must match the model")
    denom = m.forward_sv**2 + m.alpha * m.reg_sv**2
    if np.any(denom == 0.0):
        k = int(np.argmin(denom))
        raise IllPosedModeError(f"mode {k} has d^2 + alpha r^2 = 0; problem is ill posed")
    e_noise = -(m.forward_sv / denom) * zeta
    e_bias = (m.alpha * m.reg_sv**2 / denom) * q
    return e_noise, e_bias


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


# ---------------------------------------------------------------------------
# dense operator-level verification


def _sqrt_psd(m: np.ndarray) -> np.ndarray:
    vals, q = np.linalg.eigh(m)
    return (q * np.sqrt(np.clip(vals, 0.0, None))) @ q.T


def _cholesky(m: np.ndarray, name: str) -> np.ndarray:
    try:
        return cholesky(m, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NotSpdError(f"preconditioner block {name} is not positive definite: {exc}") from exc


def _congruence(k: sp.spmatrix, factors: list[np.ndarray]) -> np.ndarray:
    """L^(-1) K L^(-T) for sparse K and L = diag(factors), block by block.
    Blocks of K with no stored entries are skipped, one block at a time is
    densified, and each lower block is mirrored, so the result is symmetric."""
    ends = np.cumsum([l.shape[0] for l in factors])
    spans = [slice(end - l.shape[0], end) for end, l in zip(ends, factors)]
    e = np.zeros((ends[-1], ends[-1]))
    for i, (rows, li) in enumerate(zip(spans, factors)):
        for j, (cols, lj) in enumerate(zip(spans[: i + 1], factors)):
            block = k[rows, cols]
            if block.nnz == 0:
                continue
            x = solve_triangular(li, block.toarray(), lower=True, check_finite=False)
            x = solve_triangular(lj, x.T, lower=True, check_finite=False).T
            e[rows, cols] = 0.5 * (x + x.T) if i == j else x
            e[cols, rows] = e[rows, cols].T
    return e


def preconditioned_dense(k: np.ndarray, p_blocks: list[np.ndarray]) -> np.ndarray:
    """E = L^(-1) K L^(-T) for block-diagonal SPD P = L L^T (blockwise
    Cholesky); E has the spectrum of P^(-1/2) K P^(-1/2) and of P^(-1) K."""
    if sum(b.shape[0] for b in p_blocks) != k.shape[0]:
        raise ValueError("preconditioner blocks do not tile the operator")
    factors = [_cholesky(b, f"P{i}") for i, b in enumerate(p_blocks, 1)]
    return _congruence(sp.csr_matrix(k), factors)


def _bdal_factors(sys: KktSystem, prec: Preconditioner) -> list[np.ndarray]:
    """Cholesky factors of the exact BDAL blocks. With P3 = W / rho = L3 L3^T
    and C = L3^(-1) A, P2 = BtB + rho At W^(-1) A is exactly BtB + Ct C."""
    if prec.kind != BDAL_EXACT:
        raise ValueError(
            "dense spectral verification needs the exact-mass preconditioner "
            f"(got kind {prec.kind!r}); the provable structure requires it"
        )
    rho = prec.rho
    w = sys.mass.toarray()
    l1 = _cholesky(sys.alpha * sys.reg.toarray() + rho * w, "P1")
    l3 = _cholesky((1.0 / rho) * w, "P3")
    c = solve_triangular(l3, sys.forward.toarray(), lower=True, check_finite=False)
    return [l1, _cholesky(sys.btb.toarray() + c.T @ c, "P2"), l3]


def preconditioned_kkt_dense(
    sys: KktSystem, prec: Preconditioner, max_dim: int = 3000
) -> np.ndarray:
    """Dense symmetric preconditioned KKT operator (desk scale only)."""
    if sys.dim > max_dim:
        raise DeskScaleError(f"dense verification refused at dim {sys.dim} > {max_dim}")
    return _congruence(sys.matrix, _bdal_factors(sys, prec))


def _coupling(e: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    return e[2 * n :, :n], e[2 * n :, n : 2 * n]


def coupling_blocks(sys: KktSystem, prec: Preconditioner) -> tuple[np.ndarray, np.ndarray]:
    """The scaled coupling blocks F = L3^(-1) (-W) L1^(-T) (parameter) and
    G = L3^(-1) A L2^(-T) (state) of E. The symmetric-root blocks are Q F V1
    and Q G V2 with Q, V1, V2 orthogonal, so no derived constant changes."""
    return _coupling(_congruence(sys.matrix, _bdal_factors(sys, prec)), sys.n)


def _check(label: str, ok: bool, failures: list[str]) -> None:
    if not ok:
        failures.append(label)


def verify_spectral_bounds(
    sys: KktSystem, prec: Preconditioner, slack: float = 1e-8, max_dim: int = 3000
) -> ConditionReport:
    """Numerically verify every provable bound on one assembled instance.

    Measures delta and beta from the dense damped projectors, then checks
    the five bounds with the given slack. Raises TheoryViolationError
    (carrying the report) if any fails.
    """
    e = preconditioned_kkt_dense(sys, prec, max_dim=max_dim)
    f, g = (block.copy() for block in _coupling(e, sys.n))
    eig_e = np.linalg.eigvalsh(e)
    del e  # 9n^2 doubles; only F and G are read from here on
    sigma = np.abs(eig_e)
    sigma_max = float(sigma.max())
    sigma_min = float(sigma.min())
    cond = sigma_max / sigma_min

    q_reg = f @ f.T
    q_data = g @ g.T
    delta = 0.5 * float(np.linalg.eigvalsh(q_reg + q_data)[0])
    sq = _sqrt_psd(q_reg)
    beta_sq = float(np.linalg.eigvalsh(sq @ q_data @ sq)[-1])
    beta = math.sqrt(max(beta_sq, 0.0))

    n = sys.n
    y = np.hstack([f, g])
    sigma_min_y = float(np.sqrt(max(np.linalg.eigvalsh(y @ y.T)[0], 0.0)))

    coercivity = np.zeros((2 * n, 2 * n))
    coercivity[:n, :n] = np.eye(n)
    coercivity[n:, n:] = np.eye(n)
    ftg = f.T @ g
    coercivity[:n, n:] = ftg
    coercivity[n:, :n] = ftg.T
    lambda_min_coercivity = float(np.linalg.eigvalsh(coercivity)[0])

    constants = AmGmConstants(delta=delta, beta=beta)
    bound_sigma = sigma_min_bound(constants)
    bound_c = cond_bound(constants)

    report = ConditionReport(
        sigma_min_e=sigma_min,
        sigma_max_e=sigma_max,
        cond_e=cond,
        delta=delta,
        beta=beta,
        bound_sigma_min=bound_sigma,
        bound_cond=bound_c,
        sigma_min_y=sigma_min_y,
        lambda_min_coercivity=lambda_min_coercivity,
    )

    def leq(lhs, rhs):
        return lhs <= rhs + slack * max(1.0, abs(rhs))

    failures: list[str] = []
    _check(f"sigma_max(E) = {sigma_max:.12g} <= 2", leq(sigma_max, 2.0), failures)
    _check(
        f"sigma_min(E) = {sigma_min:.12g} >= {bound_sigma:.12g}",
        leq(bound_sigma, sigma_min),
        failures,
    )
    _check(f"cond(E) = {cond:.12g} <= {bound_c:.12g}", leq(cond, bound_c), failures)
    _check(
        f"sigma_min(Y) = {sigma_min_y:.12g} >= sqrt(2 delta) = {math.sqrt(2*delta):.12g}",
        leq(math.sqrt(2.0 * delta), sigma_min_y),
        failures,
    )
    _check(
        f"lambda_min(X + YtY) = {lambda_min_coercivity:.12g} >= 1 - beta = {1-beta:.12g}",
        leq(1.0 - beta, lambda_min_coercivity),
        failures,
    )
    if failures:
        raise TheoryViolationError("; ".join(failures), report)
    return report
