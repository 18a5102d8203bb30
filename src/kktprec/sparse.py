"""The cached sparse direct solver behind every exact solve, and the
iterative refinement it runs.

Sparse operators throughout the package are canonical scipy CSR matrices
(sorted column indices, no duplicate entries, float64 data) and are used
through scipy's own ``@``, ``.T``, ``+`` and ``.toarray()``; dense matrices
are plain 2-D float64 numpy arrays.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla


class SingularMatrixError(ValueError):
    """Factorization detected exact singularity."""


class RefinementError(RuntimeError):
    """Iterative refinement failed to reach the requested residual."""


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


class SparseLU:
    """Cached sparse LU factorization (SuperLU, COLAMD column ordering) of a
    square scipy sparse matrix; calling it solves m x = r.

    Every solve is refined against m. By default refinement stops on the
    normwise backward error ||m x - r|| / (||m||_F ||x|| + ||r||) <= tol.
    With residual=True it stops on the true relative residual
    ||m x - r|| <= tol * ||r|| instead. name labels the matrix in
    SingularMatrixError and RefinementError messages.
    """

    def __init__(self, m, name: str, tol: float, residual: bool = False):
        self.name = name
        self._m = m
        self._tol = tol
        self._norm = 0.0 if residual else float(spla.norm(m))
        try:
            self._lu = spla.splu(m.tocsc())
        except RuntimeError as exc:
            if "singular" not in str(exc):  # SuperLU: "Factor is exactly singular"
                raise
            raise SingularMatrixError(f"{name} matrix: {exc}") from exc

    def __call__(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        try:
            return refine(self._m.dot, self._lu.solve, self._lu.solve(r), r, self._tol, self._norm)
        except RefinementError as exc:
            raise RefinementError(f"{self.name} solve: {exc}") from exc
