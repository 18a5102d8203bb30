"""The cached sparse direct solver behind every exact solve, and the one
contract every such solve meets.

A SparseLU solve is refined against its matrix m until the normwise
backward error ||m x - r|| / (||m||_F ||x|| + ||r||) is at most
EXACT_SOLVE_TOL, or raises RefinementError. Neither the target nor the
rule for how many corrections to take is a parameter: "exact" means the
same thing for every solve in the package. A plain ||r - m x|| <= tol ||r||
target is held nowhere, since float64 cannot reach it once cond(m)
exceeds about 1/tol (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., ch. 7 and 12).

SparseLU reads every choice from the matrix it is given: its dtype sets
the precision of the LU, and its format the ordering. A float32 m gives
a float32 LU whose refinement stays in float64, to the same contract
(Buttari et al., ACM TOMS 34, 2008; Carson, Higham, SIAM J. Sci. Comput.
40, 2018); it is refined against m itself or, given against, against the
float64 map m is a rounding of, and m is then not kept. Only the
reference KKT solve takes a float32 LU, in that second form, since it
sets peak memory at every mesh size. Every other LU is float64: with
float32 LUs of A and R*R refined to the contract, the reduced-Hessian CG
took more iterations to its target.

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
from collections.abc import Callable

import numpy as np


class SingularMatrixError(ValueError):
    """Factorization detected exact singularity."""


class RefinementError(RuntimeError):
    """Iterative refinement failed to reach the exact-solve contract."""


# SuperLU settings for a matrix whose diagonal blocks are SPD: a minimum
# degree ordering of A^T + A, applied to rows and columns alike, and the
# diagonal taken as pivot whenever it is nonzero.
SYMMETRIC_MODE = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True})


# The exact-solve contract: the backward error every SparseLU solve meets.
EXACT_SOLVE_TOL = 1e-12


class SparseLU:
    """Cached sparse LU factorization (SuperLU) of a square scipy sparse
    matrix; calling it solves m x = r.

    Every factorization runs in SuperLU's symmetric mode: one ordering
    for rows and columns alike, and diagonal pivots, off the diagonal
    only where the diagonal entry is exactly zero (Amestoy, Davis, Duff,
    SIAM J. Matrix Anal. Appl. 17, 1996). That keeps the symmetric fill
    pattern and suits matrices whose diagonal blocks are SPD; callers
    order saddle-point systems that way.

    m's format sets the ordering. A CSC m is factored as it is and in
    its own order (permc_spec "NATURAL"): the package builds CSC only
    for systems it has already permuted into a fill-reducing order, such
    as nested dissection. A CSR m must be exactly symmetric: it is
    factored through m.T, the CSC view of m's own arrays, which then
    equals m, in the minimum degree order of m^T + m. Either way m is the
    only copy of itself while SuperLU runs.

    m's dtype sets the precision: a float32 m gives a float32 LU, which
    halves the values of the LU, and every other m a float64 one.

    Each solve is refined against x -> m x and ||m||_F, or, if against
    is given as (apply, norm), against apply, x -> A x in float64, and
    norm, ||A||_F, for the matrix A that m stands for, such as the
    float64 matrix a float32 m is a rounding of. m is then not kept once
    factored, so the LU holds no copy of the matrix.

    Every solve is refined to the module's contract, so a tiny pivot
    either refines to it or raises RefinementError, and so does a CSR m
    that breaks the symmetry contract. name labels the matrix in
    SingularMatrixError and RefinementError messages.
    """

    def __init__(self, m, name: str, against: tuple[Callable[[np.ndarray], np.ndarray], float] | None = None):
        import scipy.sparse.linalg as spla

        self.name = name
        self.single = m.dtype == np.float32
        self._apply, self._norm = (m.dot, float(spla.norm(m))) if against is None else against
        options = dict(SYMMETRIC_MODE, permc_spec="NATURAL") if m.format == "csc" else SYMMETRIC_MODE
        try:
            self._lu = spla.splu(m if m.format == "csc" else m.T, **options)
        except RuntimeError as exc:
            if "singular" not in str(exc):  # SuperLU: "Factor is exactly singular"
                raise
            raise SingularMatrixError(f"{name} matrix: {exc}") from exc

    def _solve(self, r: np.ndarray) -> np.ndarray:
        """One LU solve. A float32 LU solves r scaled to unit norm, so the
        cast neither overflows nor flushes r's entries to zero."""
        if not self.single:
            return self._lu.solve(r)
        scale = math.sqrt(r @ r)
        if scale == 0.0:
            return np.zeros_like(r)
        return self._lu.solve((r / scale).astype(np.float32)).astype(np.float64) * scale

    def _backward_error(self, r: np.ndarray, norm_r: float, x: np.ndarray) -> tuple[float, np.ndarray]:
        residual = r - self._apply(x)
        return math.sqrt(residual @ residual) / (self._norm * math.sqrt(x @ x) + norm_r), residual

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """x with m x = r to backward error EXACT_SOLVE_TOL. Each 2-norm is
        taken as sqrt(v @ v), the value np.linalg.norm returns for a 1-D
        float64 vector, without its dispatch.

        One LU solve, then one rule for both precisions: correct while a
        correction halves the backward error, and keep the better of the
        last two x (0.5 is LAPACK's xGERFSX stopping ratio; Demmel et al.,
        ACM TOMS 32, 2006). A float64 LU stops once the contract is met.
        A float32 LU goes on past it, since x can still be far from a
        float64 LU's x there, and near alpha = 1e-12 each correction may
        gain only 2-5 times, which a fixed budget would not fit. Every
        correction taken halves the backward error, which is at most 1,
        so this ends, and a stalled solve stops at its first correction
        that does not halve."""
        r = np.asarray(r, dtype=np.float64)
        norm_r = math.sqrt(r @ r)
        if norm_r == 0.0:
            return np.zeros_like(r)
        x = self._solve(r)
        err, residual = self._backward_error(r, norm_r, x)
        while self.single or err > EXACT_SOLVE_TOL:
            corrected = x + self._solve(residual)
            corrected_err, corrected_residual = self._backward_error(r, norm_r, corrected)
            if not corrected_err < 0.5 * err:
                if corrected_err <= err:
                    x, err = corrected, corrected_err
                break
            x, err, residual = corrected, corrected_err, corrected_residual
        if not err <= EXACT_SOLVE_TOL:  # a NaN backward error fails too
            raise RefinementError(
                f"{self.name} solve: refinement stalled at backward error {err:.3e} "
                f"(target {EXACT_SOLVE_TOL:.1e})"
            )
        return x
