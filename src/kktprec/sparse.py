"""The cached sparse direct solver behind every exact solve, and the one
contract every such solve meets.

A SparseLU solve is refined against its matrix m until the normwise
backward error ||m x - r|| / (||m||_F ||x|| + ||r||) is at most
EXACT_SOLVE_TOL, or raises RefinementError. Neither the target nor the
number of rounds is a parameter: "exact" means the same thing for every
solve in the package. A plain ||r - m x|| <= tol ||r|| target is held
nowhere, since float64 cannot reach it once cond(m) exceeds about 1/tol
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 7
and 12).

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
    """Iterative refinement failed to reach the exact-solve contract."""


# SuperLU settings for a matrix whose diagonal blocks are SPD: a minimum
# degree ordering of A^T + A, applied to rows and columns alike, and the
# diagonal taken as pivot whenever it is nonzero.
SYMMETRIC_MODE = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True})


# The exact-solve contract: the backward error every SparseLU solve meets,
# and the corrections after the first LU solve it may take to get there.
EXACT_SOLVE_TOL = 1e-12
REFINEMENT_ROUNDS = 5


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

    Every solve is refined against m to the module's contract, so a tiny
    pivot either refines to it or raises RefinementError, and so does a
    CSR m that breaks the symmetry contract. name labels the matrix in
    SingularMatrixError and RefinementError messages.
    """

    def __init__(self, m, name: str, ordered: bool = False):
        import scipy.sparse.linalg as spla

        self.name = name
        self.matrix = m
        self._norm = float(spla.norm(m))
        options = dict(SYMMETRIC_MODE, permc_spec="NATURAL") if ordered else SYMMETRIC_MODE
        try:
            self._lu = spla.splu(m if m.format == "csc" else m.T, **options)
        except RuntimeError as exc:
            if "singular" not in str(exc):  # SuperLU: "Factor is exactly singular"
                raise
            raise SingularMatrixError(f"{name} matrix: {exc}") from exc

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """x with m x = r to backward error EXACT_SOLVE_TOL: one LU solve,
        then up to REFINEMENT_ROUNDS corrections. Each 2-norm is taken as
        sqrt(v @ v), the value np.linalg.norm returns for a 1-D float64
        vector, without its dispatch."""
        r = np.asarray(r, dtype=np.float64)
        norm_r = math.sqrt(r @ r)
        if norm_r == 0.0:
            return np.zeros_like(r)
        x = self._lu.solve(r)
        for rounds in range(REFINEMENT_ROUNDS + 1):
            residual = r - self.matrix.dot(x)
            err = math.sqrt(residual @ residual) / (self._norm * math.sqrt(x @ x) + norm_r)
            if err <= EXACT_SOLVE_TOL:
                return x
            if rounds < REFINEMENT_ROUNDS:
                x = x + self._lu.solve(residual)
        raise RefinementError(
            f"{self.name} solve: refinement stalled at backward error {err:.3e} "
            f"(target {EXACT_SOLVE_TOL:.1e})"
        )
