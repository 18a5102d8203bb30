"""Dense symmetric eigendecomposition and direct solves.

Backed by LAPACK: eigendecomposition via the symmetric QR driver, SPD solves
via Cholesky, symmetric indefinite solves via Bunch-Kaufman diagonal
pivoting (?sysv / ?sytrs). All solves run a short iterative-refinement loop
so the returned residual meets the stated tolerance rather than merely the
backward-stable one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import get_lapack_funcs


class AsymmetricMatrixError(ValueError):
    """Input expected to be symmetric is not."""


class NotSpdError(ValueError):
    """Cholesky failed: matrix is not symmetric positive definite."""


class SingularMatrixError(ValueError):
    """Factorization detected exact singularity."""


class RefinementError(RuntimeError):
    """Iterative refinement failed to reach the requested residual."""


_SYM_TOL = 1e-12


def _require_symmetric(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise AsymmetricMatrixError("expected a square matrix")
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    if float(np.abs(m - m.T).max(initial=0.0)) > _SYM_TOL * scale:
        raise AsymmetricMatrixError("matrix is not symmetric within 1e-12 relative")
    return m


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in ascending order with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        q = self.eigenvectors
        return (q * self.eigenvalues) @ q.T


def symmetric_eig(m: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix."""
    m = _require_symmetric(m)
    w, v = np.linalg.eigh(m)
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)


def refine(
    matvec,
    solve,
    x: np.ndarray,
    b: np.ndarray,
    tol: float,
    norm_m: float,
    max_rounds: int = 5,
):
    """Refine x until the normwise backward error ||r|| / (||M||*||x|| + ||b||)
    is <= tol; raises RefinementError if max_rounds do not get there.

    A plain ||r|| <= tol*||b|| target is unreachable in double precision
    once cond(M) exceeds ~1/tol. Callers that need that target anyway pass
    norm_m = 0, which turns the criterion into the relative residual.
    """
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return np.zeros_like(b)

    def backward_error(xk, rk):
        return float(np.linalg.norm(rk)) / (norm_m * float(np.linalg.norm(xk)) + norm_b)

    for _ in range(max_rounds):
        r = b - matvec(x)
        if backward_error(x, r) <= tol:
            return x
        x = x + solve(r)
    r = b - matvec(x)
    err = backward_error(x, r)
    if err <= tol:
        return x
    measure = "backward error" if norm_m > 0.0 else "relative residual"
    raise RefinementError(f"refinement stalled at {measure} {err:.3e} (target {tol:.1e})")


class CholeskySolver:
    """Cached Cholesky factorization of an SPD matrix with refined solves."""

    def __init__(self, m: np.ndarray):
        self._m = _require_symmetric(m)
        self._norm = float(np.linalg.norm(self._m))
        try:
            self._factor = sla.cho_factor(self._m, lower=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise NotSpdError(str(exc)) from exc

    def solve(self, b: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        b = np.asarray(b, dtype=np.float64)
        x = sla.cho_solve(self._factor, b, check_finite=False)
        return refine(
            lambda v: self._m @ v,
            lambda r: sla.cho_solve(self._factor, r, check_finite=False),
            x,
            b,
            tol,
            self._norm,
        )


class SymmetricIndefiniteSolver:
    """Cached Bunch-Kaufman LDL^T factorization with refined solves."""

    def __init__(self, m: np.ndarray):
        self._m = _require_symmetric(m)
        self._norm = float(np.linalg.norm(self._m))
        sytrf, = get_lapack_funcs(("sytrf",), (self._m,))
        ldu, ipiv, info = sytrf(self._m, lower=1)
        if info > 0:
            raise SingularMatrixError(f"zero pivot in LDL^T at position {info}")
        if info < 0:
            raise ValueError(f"illegal argument {-info} to sytrf")
        self._ldu = ldu
        self._ipiv = ipiv
        self._sytrs, = get_lapack_funcs(("sytrs",), (self._m,))

    def _solve_once(self, b: np.ndarray) -> np.ndarray:
        x, info = self._sytrs(self._ldu, self._ipiv, b, lower=1)
        if info != 0:
            raise SingularMatrixError("triangular solve against LDL^T factors failed")
        return x

    def solve(self, b: np.ndarray, tol: float = 1e-10) -> np.ndarray:
        b = np.asarray(b, dtype=np.float64)
        x = self._solve_once(b)
        return refine(lambda v: self._m @ v, self._solve_once, x, b, tol, self._norm)


def dense_solve_spd(m: np.ndarray, b: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Solve m x = b for SPD m, refined to backward error <= tol.

    For reasonably conditioned m this implies ||m x - b|| <= tol * ||b||.
    """
    return CholeskySolver(m).solve(b, tol=tol)


def dense_solve_symmetric_indefinite(
    m: np.ndarray, b: np.ndarray, tol: float = 1e-10
) -> np.ndarray:
    """Solve m x = b for symmetric (possibly indefinite) m.

    Uses symmetric pivoting with 1x1 and 2x2 pivot blocks; refined to
    backward error <= tol, which for reasonably conditioned m implies
    ||m x - b|| <= tol * ||b||.
    """
    return SymmetricIndefiniteSolver(m).solve(b, tol=tol)
