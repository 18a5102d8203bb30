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
and G the same singular values. beta^2 is lambda_max(G^T Q_reg G), which
shares the nonzero spectrum of Q_reg Q_data.

A sixth check is proven too: E has inertia (2n, n, 0). K's (q, u) block
diag(alpha R*R, B*B) is positive definite on the null space of [-W A], so
K has 2n positive and n negative eigenvalues (Gould, Math. Prog. 32, 1985;
Benzi, Golub and Liesen, Acta Numerica 14, 2005, sec. 3), and so has the
congruent E (Sylvester). The check reads lambda_n(E) < 0 < lambda_(n+1)(E).

The checks read seven eigenvalues, not whole spectra: lambda_1, lambda_n,
lambda_(n+1) and lambda_3n of E, and one extreme eigenvalue of each of
three n x n symmetric matrices. Each matrix is reduced once to tridiagonal
form, and the eigenvalues asked for are found there by bisection, in O(n)
work each (Demmel, Applied Numerical Linear Algebra, SIAM 1997, ch. 5).
sigma_max(E) = max(-lambda_1, lambda_3n). sigma_min(E) is
s = min(|lambda_n|, |lambda_(n+1)|) when the inertia holds; any eigenvalue
nearer 0 lies in (-s, s], which one bisection by value searches, so
sigma_min(E) is min |lambda| whether or not the inertia check passes.

Working set: E (9 n^2 doubles) is allocated first and each block written
as soon as its dense factors exist, so forming it holds at most two n x n
factors and the temporaries of one block beside it. The n x n
checks then read F and G as views of E and hold a few n x n products at
a time. E is tridiagonalized last, on its own storage, so that reduction
holds E alone.

For the exact BDAL preconditioner the last two checks hold with equality.
Y Y^T = Q_reg + Q_data, so sigma_min(Y)^2 = 2 delta; and X + Y^T Y =
[[I, F^T G], [G^T F, I]] has lambda_min = 1 - sigma_max(F^T G) = 1 - beta,
taken from one n x n SVD. Each is computed by another route than the
constant it checks, so on assembled instances they test rounding (gaps of
at most 1.4e-16 and 1.3e-14 relative on the theory grid), not the
theory; they stay as consistency checks on the measured delta and beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import get_lapack_funcs

from .config import BDAL_EXACT
from .kkt import KktSystem, Preconditioner

# Relative slack of every bound check.
SLACK = 1e-8
# Largest KKT dimension verified densely; E alone is 8 (dim)^2 bytes.
MAX_DENSE_DIM = 3000


class TheoryViolationError(RuntimeError):
    """A provable spectral bound failed numerically beyond slack, or the
    measured constants make the bounds vacuous."""

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


# The kernels call LAPACK (Anderson et al., LAPACK Users' Guide, 3rd ed.,
# SIAM 1999) directly. potrf, trtrs and gesdd get the routines and
# arguments that scipy.linalg's cholesky, solve_triangular and svdvals
# pass, so those results are bit for bit theirs. The eigenvalues come from
# sytrd (tridiagonal reduction) and stebz (bisection), which give the
# eigenvalues of a full eigensolve to rounding, not its bits. The wrappers'
# input check reads numpy.ma.isMaskedArray, which would import numpy.ma in
# every verifying process; the arrays here are the verifier's own float64
# temporaries.


def _lapack_ok(info: int, routine: str) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed with info = {info}")


def _cholesky(m: np.ndarray, name: str) -> np.ndarray:
    """Lower Cholesky factor of m (potrf), written over m: callers pass a
    fresh temporary, Fortran-ordered where they can, so LAPACK needs no
    copy."""
    (potrf,) = get_lapack_funcs(("potrf",), (m,))
    l, info = potrf(m, lower=1, overwrite_a=1, clean=1)
    if info > 0:
        raise NotSpdError(
            f"preconditioner block {name} is not positive definite: "
            f"{info}-th leading minor of the array is not positive definite"
        )
    _lapack_ok(info, "potrf")
    return l


def _solve_lower(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L^(-1) b (trtrs), written over b where LAPACK can: callers pass b
    only when nothing reads it afterwards. potrf returns every factor in
    Fortran order; the f2py wrapper copies a C-ordered one to it."""
    (trtrs,) = get_lapack_funcs(("trtrs",), (l, b))
    x, info = trtrs(l, b, overwrite_b=1, lower=1, trans=0, unitdiag=0)
    _lapack_ok(info, "trtrs")
    return x


def _tridiagonal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and subdiagonal of T = Q^T a Q for the symmetric a (sytrd),
    written over a: callers pass a C-ordered temporary that nothing reads
    afterwards, whose transpose is the Fortran-ordered view LAPACK reads
    (its lower triangle) without a copy."""
    sytrd, sytrd_lwork = get_lapack_funcs(("sytrd", "sytrd_lwork"), (a,))
    lwork, info = sytrd_lwork(n=a.shape[0], lower=1)
    _lapack_ok(info, "sytrd_lwork")
    _, d, e, _, info = sytrd(a.T, lower=1, lwork=int(lwork), overwrite_a=1)
    _lapack_ok(info, "sytrd")
    return d, e


def _bisect(
    t: tuple[np.ndarray, np.ndarray], lo: float, hi: float, by_value: bool = False
) -> np.ndarray:
    """Eigenvalues, ascending, of the tridiagonal t by bisection (stebz):
    those of index lo to hi (from 1), or by_value those in (lo, hi]. With
    abstol 0 each is found to about an ulp of the norm of t, the accuracy
    the reduction to t leaves anyway."""
    (stebz,) = get_lapack_funcs(("stebz",), t)
    args = (1, lo, hi, 0, 0) if by_value else (2, 0.0, 0.0, lo, hi)
    m, w, _, _, info = stebz(*t, *args, 0.0, "E")
    _lapack_ok(info, "stebz")
    return w[:m]


def _eigenvalue(a: np.ndarray, i: int) -> float:
    """The i-th smallest eigenvalue (from 1) of the symmetric a, written
    over a."""
    return float(_bisect(_tridiagonal(a), i, i)[0])


def svdvals(a: np.ndarray) -> np.ndarray:
    """Singular values of a, descending (gesdd, no singular vectors)."""
    gesdd, gesdd_lwork = get_lapack_funcs(("gesdd", "gesdd_lwork"), (a,), ilp64="preferred")
    lwork, info = gesdd_lwork(*a.shape, compute_uv=0, full_matrices=1)
    _lapack_ok(info, "gesdd_lwork")
    _, s, _, info = gesdd(a, compute_uv=0, lwork=int(lwork.real), full_matrices=1, overwrite_a=0)
    _lapack_ok(info, "gesdd")
    return s


def _congruent(l: np.ndarray, block: sp.spmatrix) -> np.ndarray:
    """Symmetric part of L^(-1) block L^(-T), for a symmetric block."""
    x = _solve_lower(l, _solve_lower(l, block.toarray(order="F")).T).T
    return 0.5 * (x + x.T)


def preconditioned_kkt_dense(sys: KktSystem, prec: Preconditioner) -> np.ndarray:
    """Dense E = L^(-1) K L^(-T) for the exact BDAL blocks P_i = L_i L_i^T
    (desk scale only), formed from K's four nonzero blocks, as
    KktSystem.blocks() gives them: the diagonal X1 = L1^(-1) alpha R*R
    L1^(-T) and X2 = L2^(-1) BtB L2^(-T), symmetrized, and the coupling
    F = L3^(-1) (-W) L1^(-T) and G = (L3^(-1) A) L2^(-T), mirrored above
    the diagonal. P's own mass W is sys.mass: P1 = alpha R*R + rho W and
    P3 = W / rho, so P2 = BtB + rho At W^(-1) A is exactly BtB + Ct C for
    C = L3^(-1) A.

    Each block is written into E as soon as its factors exist, and each
    n x n factor is freed after its last block: L1 after X1 and F, L3 once
    C is formed, C after G, L2 after X2. So at most two of L1, L3, C and
    L2 are alive beside E."""
    if sys.dim > MAX_DENSE_DIM:
        raise DeskScaleError(f"dense verification refused at dim {sys.dim} > {MAX_DENSE_DIM}")
    if prec.kind != BDAL_EXACT:
        raise ValueError(
            "dense spectral verification needs the exact-mass preconditioner "
            f"(got kind {prec.kind!r}); the provable structure requires it"
        )
    (areg, _, neg_w), (_, btb, a) = sys.blocks()[:2]
    n, rho = sys.n, prec.rho
    q, u, eta = slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n)
    e = np.zeros((3 * n, 3 * n))

    w = sys.mass.toarray(order="F")
    l1 = _cholesky(areg.toarray(order="F") + rho * w, "P1")
    l3 = _cholesky((1.0 / rho) * w, "P3")
    del w
    e[q, q] = _congruent(l1, areg)
    e[eta, q] = _solve_lower(l1, _solve_lower(l3, neg_w.toarray(order="F")).T).T
    del l1
    c = _solve_lower(l3, a.toarray(order="F"))
    del l3

    l2 = _cholesky(btb.toarray() + c.T @ c, "P2")
    e[eta, u] = _solve_lower(l2, c.T).T
    del c
    e[u, u] = _congruent(l2, btb)
    del l2
    e[: 2 * n, eta] = e[eta, : 2 * n].T
    return e


def verify_spectral_bounds(sys: KktSystem, prec: Preconditioner) -> ConditionReport:
    """Numerically verify every provable bound on one assembled instance.

    Measures delta and beta from the dense damped projectors, then checks
    the five bounds with relative slack SLACK and E's inertia exactly.
    Raises TheoryViolationError (carrying the report) if any fails, or if
    beta >= 1 or delta <= 0 makes the bounds vacuous (bound_cond is then
    inf). An exact zero eigenvalue of E is recorded as cond_e = inf.
    """
    n = sys.n
    e = preconditioned_kkt_dense(sys, prec)
    # The n x n checks read views of E's coupling rows Y = [F G], so they
    # run before the tridiagonalization overwrites E.
    y = e[2 * n :, : 2 * n]
    f, g = y[:, :n], y[:, n:]
    q_reg = f @ f.T
    delta = 0.5 * _eigenvalue(q_reg + g @ g.T, 1)
    # Q_reg Q_data = (F F^T G) G^T shares its nonzero spectrum with G^T Q_reg G.
    beta = math.sqrt(max(_eigenvalue(g.T @ q_reg @ g, n), 0.0))
    del q_reg

    sigma_min_y = math.sqrt(max(_eigenvalue(y @ y.T, 1), 0.0))
    # lambda_min([[I, F^T G], [G^T F, I]]) = 1 - sigma_max(F^T G)
    lambda_min_coercivity = 1.0 - float(svdvals(f.T @ g)[0])
    del y, f, g

    # E is exactly symmetric, so LAPACK reduces it in place, with no second
    # 9n^2 buffer.
    t = _tridiagonal(e)
    del e
    (lam_1,), (lam_n, lam_n1), (lam_3n,) = (
        _bisect(t, lo, hi).tolist() for lo, hi in ((1, 1), (n, n + 1), (3 * n, 3 * n))
    )
    sigma_max = max(-lam_1, lam_3n)
    # With n negative eigenvalues, sigma_min(E) = min(-lambda_n, lambda_n+1).
    # Any eigenvalue nearer 0 than both lies in (-s, s].
    s = min(abs(lam_n), abs(lam_n1))
    sigma_min = s if s == 0.0 else float(np.abs(_bisect(t, -s, s, by_value=True)).min(initial=s))
    cond = sigma_max / sigma_min if sigma_min > 0.0 else math.inf

    constants = AmGmConstants(delta=delta, beta=beta)
    bound_sigma = sigma_min_bound(constants)
    # Rounding can measure beta >= 1 at tiny alpha; the bounds then say
    # nothing, and the instance fails instead of aborting the sweep.
    vacuous = not (beta < 1.0 and delta > 0.0)
    bound_c = math.inf if vacuous else cond_bound(constants)

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

    # delta <= 0 is recorded as vacuous below; check 4's bound is then 0.
    root_2delta = math.sqrt(max(2.0 * delta, 0.0))

    def leq(lhs, rhs):
        return lhs <= rhs + SLACK * max(1.0, abs(rhs))

    checks = [
        (f"sigma_max(E) = {sigma_max:.12g} <= 2", leq(sigma_max, 2.0)),
        (f"sigma_min(E) = {sigma_min:.12g} >= {bound_sigma:.12g}", leq(bound_sigma, sigma_min)),
        (f"cond(E) = {cond:.12g} <= {bound_c:.12g}", leq(cond, bound_c)),
        (
            f"sigma_min(Y) = {sigma_min_y:.12g} >= sqrt(2 delta) = {root_2delta:.12g}",
            leq(root_2delta, sigma_min_y),
        ),
        (
            f"lambda_min(X + YtY) = {lambda_min_coercivity:.12g} >= 1 - beta = {1-beta:.12g}",
            leq(1.0 - beta, lambda_min_coercivity),
        ),
        (
            f"inertia(E) = ({2 * n}, {n}, 0): "
            f"lambda_{n}(E) = {lam_n:.12g} < 0 < lambda_{n + 1}(E) = {lam_n1:.12g}",
            lam_n < 0.0 < lam_n1,
        ),
        (f"beta = {beta:.12g}, delta = {delta:.12g}: the bounds are vacuous", not vacuous),
    ]
    failures = [label for label, ok in checks if not ok]
    if failures:
        raise TheoryViolationError("; ".join(failures), report)
    return report
