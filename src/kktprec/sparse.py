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

The LU may be float32 (single=True), at the caller's choice: the
refinement stays in float64 against the float64 m, to the same contract
(Buttari et al., ACM TOMS 34, 2008; Carson, Higham, SIAM J. Sci. Comput.
40, 2018). A caller may also hand over only a float32 m together with the
float64 map it stands for and that map's Frobenius norm (against): the
LU is then refined against the map, and m is not kept. Only the
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


# The exact-solve contract: the backward error every SparseLU solve meets,
# and the corrections after the first LU solve a float64 LU may take to get
# there. A float32 LU corrects while each correction halves the error.
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
    SuperLU runs. With single=True SuperLU factors a float32 copy of m's
    values on m's own index arrays instead, which halves the values of
    the LU, and m stays float64 for refinement; a float32 m is factored
    as it is.

    against, if given, is (apply, norm): x -> m x in float64 and ||m||_F,
    for an m that holds only a float32 rounding of the matrix. Each solve
    is then refined against apply and norm, and m is dropped once
    factored (``matrix`` is None), so the LU holds no copy of the matrix.

    Every solve is refined to the module's contract, so a tiny pivot
    either refines to it or raises RefinementError, and so does a CSR m
    that breaks the symmetry contract. name labels the matrix in
    SingularMatrixError and RefinementError messages.
    """

    def __init__(
        self,
        m,
        name: str,
        ordered: bool = False,
        single: bool = False,
        against: tuple[Callable[[np.ndarray], np.ndarray], float] | None = None,
    ):
        import scipy.sparse.linalg as spla

        self.name = name
        self.single = single
        if against is None:
            self.matrix = m
            self._apply, self._norm = m.dot, float(spla.norm(m))
        else:
            self.matrix = None
            self._apply, self._norm = against
        if single and m.dtype != np.float32:
            m = type(m)((m.data.astype(np.float32), m.indices, m.indptr), shape=m.shape)
        options = dict(SYMMETRIC_MODE, permc_spec="NATURAL") if ordered else SYMMETRIC_MODE
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

        A float64 LU takes one LU solve, then up to REFINEMENT_ROUNDS
        corrections until the contract is met. A float32 LU corrects while
        a correction halves the backward error and keeps the better of the
        last two x (0.5 is LAPACK's xGERFSX stopping ratio; Demmel et al.,
        ACM TOMS 32, 2006), then holds that x to the contract. A fixed
        budget would not fit it: near alpha = 1e-12 each correction may
        gain only 2-5 times, and x can still be far from a float64 LU's x
        once the contract is met. Every correction taken halves the error,
        so this ends, and a stalled solve stops at its first correction
        that does not halve."""
        r = np.asarray(r, dtype=np.float64)
        norm_r = math.sqrt(r @ r)
        if norm_r == 0.0:
            return np.zeros_like(r)
        x = self._solve(r)
        err, residual = self._backward_error(r, norm_r, x)
        if self.single:
            while True:
                corrected = x + self._solve(residual)
                corrected_err, corrected_residual = self._backward_error(r, norm_r, corrected)
                if not corrected_err < 0.5 * err:
                    if corrected_err <= err:
                        x, err = corrected, corrected_err
                    break
                x, err, residual = corrected, corrected_err, corrected_residual
        else:
            for _ in range(REFINEMENT_ROUNDS):
                if err <= EXACT_SOLVE_TOL:
                    break
                x = x + self._solve(residual)
                err, residual = self._backward_error(r, norm_r, x)
        if not err <= EXACT_SOLVE_TOL:  # a NaN backward error fails too
            raise RefinementError(
                f"{self.name} solve: refinement stalled at backward error {err:.3e} "
                f"(target {EXACT_SOLVE_TOL:.1e})"
            )
        return x
