"""Numerical verification of the proven spectral bounds on the
BDAL-preconditioned KKT operator.

For an assembled system the damped projectors
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
with E formed from K's four nonzero blocks as the block-Cholesky
congruence L^(-1) K L^(-T), P = L L^T: it differs from P^(-1/2) K P^(-1/2)
by an orthogonal block-diagonal factor, so it has the same spectrum, and F
and G the same singular values. E's eigenvalues are solved on E's own
storage, so that solve holds E and the copied coupling rows Y = [F G],
about 11 n^2 doubles. beta^2 is lambda_max(G^T Q_reg G), which shares the
nonzero spectrum of Q_reg Q_data.

For the exact BDAL preconditioner the last two checks hold with equality.
Y Y^T = Q_reg + Q_data, so sigma_min(Y)^2 = 2 delta; and X + Y^T Y =
[[I, F^T G], [G^T F, I]] has lambda_min = 1 - sigma_max(F^T G) = 1 - beta,
taken from one n x n SVD. Each is computed by another route than the
constant it checks, so on assembled instances they test rounding (gaps of
about 1e-15 and 5e-14 relative on the theory grid), not the theory; they
stay as consistency checks on the measured delta and beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cholesky, eigh, solve_triangular, svdvals

from .kkt import BDAL_EXACT, KktSystem, Preconditioner

# Relative slack of every bound check.
SLACK = 1e-8
# Largest KKT dimension verified densely; E alone is 8 (dim)^2 bytes.
MAX_DENSE_DIM = 3000


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
class AmGmConstants:
    """delta in (0, 1], beta in [0, 1]; the bounds are vacuous at beta = 1."""

    delta: float
    beta: float


@dataclass(frozen=True)
class ConditionReport:
    """Measured constants, extrema and bounds of one instance, in the column
    order of theory.csv."""

    delta: float
    beta: float
    sigma_min_e: float
    sigma_max_e: float
    cond_e: float
    bound_sigma_min: float
    bound_cond: float
    sigma_min_y: float
    lambda_min_coercivity: float


def cond_bound(c: AmGmConstants) -> float:
    """Provable condition-number bound (2 + 2 sqrt(2)) / ((1-beta) delta)."""
    if not (c.beta < 1.0):
        raise ValueError("condition bound requires beta < 1")
    if not (c.delta > 0.0):
        raise ValueError("condition bound requires delta > 0")
    return (2.0 + 2.0 * math.sqrt(2.0)) / ((1.0 - c.beta) * c.delta)


def sigma_min_bound(c: AmGmConstants) -> float:
    """Provable lower bound (1-beta) delta / (1+sqrt(2)) on sigma_min(E)."""
    return (1.0 - c.beta) * c.delta / (1.0 + math.sqrt(2.0))


# ---------------------------------------------------------------------------
# dense operator-level verification


def _cholesky(m: np.ndarray, name: str) -> np.ndarray:
    try:
        return cholesky(m, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NotSpdError(f"preconditioner block {name} is not positive definite: {exc}") from exc


def _solve_lower(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    return solve_triangular(l, b, lower=True, check_finite=False)


def _congruent(l: np.ndarray, block: sp.spmatrix) -> np.ndarray:
    """Symmetric part of L^(-1) block L^(-T), for a symmetric block."""
    x = _solve_lower(l, _solve_lower(l, block.toarray()).T).T
    return 0.5 * (x + x.T)


def preconditioned_kkt_dense(sys: KktSystem, prec: Preconditioner) -> np.ndarray:
    """Dense E = L^(-1) K L^(-T) for the exact BDAL blocks P_i = L_i L_i^T
    (desk scale only), formed from K's four nonzero blocks: the diagonal
    L1^(-1) alpha R*R L1^(-T) and L2^(-1) BtB L2^(-T), symmetrized, and the
    coupling F = L3^(-1) (-W) L1^(-T) and G = (L3^(-1) A) L2^(-T), mirrored
    above the diagonal. With P3 = W / rho, P2 = BtB + rho At W^(-1) A is
    exactly BtB + Ct C for C = L3^(-1) A."""
    if sys.dim > MAX_DENSE_DIM:
        raise DeskScaleError(f"dense verification refused at dim {sys.dim} > {MAX_DENSE_DIM}")
    if prec.kind != BDAL_EXACT:
        raise ValueError(
            "dense spectral verification needs the exact-mass preconditioner "
            f"(got kind {prec.kind!r}); the provable structure requires it"
        )
    n, rho = sys.n, prec.rho
    w = sys.mass.toarray()
    l1 = _cholesky(sys.alpha * sys.reg.toarray() + rho * w, "P1")
    l3 = _cholesky((1.0 / rho) * w, "P3")
    del w  # only the factors and C stay alive while E (9 n^2) fills
    c = _solve_lower(l3, sys.forward.toarray())
    l2 = _cholesky(sys.btb.toarray() + c.T @ c, "P2")

    q, u, eta = slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n)
    e = np.zeros((3 * n, 3 * n))
    e[q, q] = _congruent(l1, sys.alpha * sys.reg)
    e[u, u] = _congruent(l2, sys.btb)
    e[eta, q] = _solve_lower(l1, _solve_lower(l3, (-sys.mass).toarray()).T).T
    e[eta, u] = _solve_lower(l2, c.T).T
    e[: 2 * n, eta] = e[eta, : 2 * n].T
    return e


def verify_spectral_bounds(sys: KktSystem, prec: Preconditioner) -> ConditionReport:
    """Numerically verify every provable bound on one assembled instance.

    Measures delta and beta from the dense damped projectors, then checks
    the five bounds with relative slack SLACK. Raises TheoryViolationError
    (carrying the report) if any fails.
    """
    n = sys.n
    e = preconditioned_kkt_dense(sys, prec)
    y = e[2 * n :, : 2 * n].copy()
    f, g = y[:, :n], y[:, n:]
    # E is exactly symmetric, so e.T is a Fortran-ordered view of it that
    # LAPACK overwrites in place, with no second 9n^2 buffer.
    sigma = np.abs(eigh(e.T, eigvals_only=True, overwrite_a=True, check_finite=False, driver="evd"))
    del e
    sigma_max = float(sigma.max())
    sigma_min = float(sigma.min())
    cond = sigma_max / sigma_min

    q_reg = f @ f.T
    delta = 0.5 * float(np.linalg.eigvalsh(q_reg + g @ g.T)[0])
    # Q_reg Q_data = (F F^T G) G^T shares its nonzero spectrum with G^T Q_reg G.
    beta_sq = float(np.linalg.eigvalsh(g.T @ q_reg @ g)[-1])
    beta = math.sqrt(max(beta_sq, 0.0))

    sigma_min_y = float(np.sqrt(max(np.linalg.eigvalsh(y @ y.T)[0], 0.0)))
    # lambda_min([[I, F^T G], [G^T F, I]]) = 1 - sigma_max(F^T G)
    lambda_min_coercivity = 1.0 - float(svdvals(f.T @ g)[0])

    constants = AmGmConstants(delta=delta, beta=beta)
    bound_sigma = sigma_min_bound(constants)
    bound_c = cond_bound(constants)

    report = ConditionReport(
        delta=delta,
        beta=beta,
        sigma_min_e=sigma_min,
        sigma_max_e=sigma_max,
        cond_e=cond,
        bound_sigma_min=bound_sigma,
        bound_cond=bound_c,
        sigma_min_y=sigma_min_y,
        lambda_min_coercivity=lambda_min_coercivity,
    )

    def leq(lhs, rhs):
        return lhs <= rhs + SLACK * max(1.0, abs(rhs))

    checks = [
        (f"sigma_max(E) = {sigma_max:.12g} <= 2", leq(sigma_max, 2.0)),
        (f"sigma_min(E) = {sigma_min:.12g} >= {bound_sigma:.12g}", leq(bound_sigma, sigma_min)),
        (f"cond(E) = {cond:.12g} <= {bound_c:.12g}", leq(cond, bound_c)),
        (
            f"sigma_min(Y) = {sigma_min_y:.12g} >= sqrt(2 delta) = {math.sqrt(2*delta):.12g}",
            leq(math.sqrt(2.0 * delta), sigma_min_y),
        ),
        (
            f"lambda_min(X + YtY) = {lambda_min_coercivity:.12g} >= 1 - beta = {1-beta:.12g}",
            leq(1.0 - beta, lambda_min_coercivity),
        ),
    ]
    failures = [label for label, ok in checks if not ok]
    if failures:
        raise TheoryViolationError("; ".join(failures), report)
    return report
