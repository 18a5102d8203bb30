"""The cached sparse direct solver behind every exact solve, and the
iterative refinement it runs.

Sparse operators throughout the package are canonical scipy CSR matrices
(sorted column indices, no duplicate entries, float64 data) and are used
through scipy's own ``@``, ``.T``, ``+`` and ``.toarray()``; dense matrices
are plain 2-D float64 numpy arrays.

scipy.sparse.linalg (SuperLU, with ARPACK and PROPACK beside it) is
imported by the first SparseLU, not with this module, so a process that
never factors, such as every verify-theory process, never loads it.
"""

from __future__ import annotations

import math

import numpy as np


class SingularMatrixError(ValueError):
    """Factorization detected exact singularity."""


class RefinementError(RuntimeError):
    """Iterative refinement failed to reach the requested backward error."""


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

    A plain ||r|| <= tol*||b|| target would be unreachable in double
    precision once cond(M) exceeds ~1/tol, so no solve is held to it
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    ch. 7 and 12).

    Each 2-norm is taken as sqrt(v @ v), the value np.linalg.norm returns
    for a 1-D float64 vector, without its dispatch.
    """
    norm_b = math.sqrt(b @ b)
    if norm_b == 0.0:
        return np.zeros_like(b)

    def backward_error(xk, rk):
        return math.sqrt(rk @ rk) / (norm_m * math.sqrt(xk @ xk) + norm_b)

    for _ in range(max_rounds):
        r = b - matvec(x)
        if backward_error(x, r) <= tol:
            return x
        x = x + solve(r)
    r = b - matvec(x)
    err = backward_error(x, r)
    if err <= tol:
        return x
    raise RefinementError(f"refinement stalled at backward error {err:.3e} (target {tol:.1e})")


# SuperLU settings for a matrix whose diagonal blocks are SPD: a minimum
# degree ordering of A^T + A, applied to rows and columns alike, and the
# diagonal taken as pivot whenever it is nonzero.
SYMMETRIC_MODE = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True})


# The contract of every exact solve: a refined SparseLU's normwise backward
# error is at most this.
EXACT_SOLVE_TOL = 1e-12


class SparseLU:
    """Cached sparse LU factorization (SuperLU) of a square scipy sparse
    matrix; calling it solves m x = r.

    Every factorization runs in SuperLU's symmetric mode: one minimum
    degree ordering on the pattern of m^T + m for rows and columns alike,
    and diagonal pivots, off the diagonal only where the diagonal entry is
    exactly zero (Amestoy, Davis, Duff, SIAM J. Matrix Anal. Appl. 17,
    1996). That keeps the symmetric fill pattern and suits matrices whose
    diagonal blocks are SPD; callers order saddle-point systems that way.
    With ordered=True SuperLU skips its own ordering and eliminates in
    m's order (permc_spec "NATURAL"): callers that pass it have already
    permuted m into a fill-reducing order, such as nested dissection.

    m is CSC or CSR, and SuperLU takes CSC. A CSC m is factored as it is.
    A CSR m must be exactly symmetric: it is factored through m.T, the CSC
    view of m's own arrays, which then equals m. So m, kept in its own
    format as ``matrix`` for refinement, is the only copy of itself while
    SuperLU runs.

    Every solve is refined against m, so a tiny pivot either refines to
    the contract or raises RefinementError, and so does a CSR m that
    breaks the symmetry contract. Refinement stops on the normwise
    backward error ||m x - r|| / (||m||_F ||x|| + ||r||) <= tol. name
    labels the matrix in SingularMatrixError and RefinementError messages.
    """

    def __init__(self, m, name: str, tol: float, ordered: bool = False):
        import scipy.sparse.linalg as spla

        self.name = name
        self.matrix = m
        self._tol = tol
        self._norm = float(spla.norm(m))
        options = dict(SYMMETRIC_MODE, permc_spec="NATURAL") if ordered else SYMMETRIC_MODE
        try:
            self._lu = spla.splu(m if m.format == "csc" else m.T, **options)
        except RuntimeError as exc:
            if "singular" not in str(exc):  # SuperLU: "Factor is exactly singular"
                raise
            raise SingularMatrixError(f"{name} matrix: {exc}") from exc

    def __call__(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        try:
            return refine(self.matrix.dot, self._lu.solve, self._lu.solve(r), r, self._tol, self._norm)
        except RefinementError as exc:
            raise RefinementError(f"{self.name} solve: {exc}") from exc
