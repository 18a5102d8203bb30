"""Sparse CSR matrices, the few operations assembly and preconditioning
need, and the cached sparse direct solver behind every exact solve.

Dense matrices throughout the package are plain 2-D float64 numpy arrays;
sparse matrices are the :class:`SparseMatrix` wrapper below, which pins the
storage contract (canonical CSR: nondecreasing row offsets, strictly
increasing column indices within each row, duplicates summed at build time).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .dense import RefinementError, SingularMatrixError, refine


class DimensionMismatchError(ValueError):
    """Operand dimensions are incompatible."""


class NonpositiveDiagonalError(ValueError):
    """A diagonal factor that must be positive is not."""


def _as_canonical_csr(m) -> sp.csr_matrix:
    c = sp.csr_matrix(m)
    c.sum_duplicates()
    c.sort_indices()
    return c


@dataclass(frozen=True)
class SparseMatrix:
    """Real CSR matrix with canonical structure.

    indptr has length nrows+1 and is nondecreasing; within each row the
    column indices are strictly increasing; values are float64. Instances
    are immutable; assembly goes through :meth:`from_coo`, which sums
    duplicate (row, col) entries at finalize time.
    """

    nrows: int
    ncols: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        for name in ("indptr", "indices", "data"):
            getattr(self, name).flags.writeable = False

    @staticmethod
    def from_coo(nrows: int, ncols: int, rows, cols, vals) -> "SparseMatrix":
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if rows.size and (rows.min() < 0 or rows.max() >= nrows):
            raise DimensionMismatchError("row index out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= ncols):
            raise DimensionMismatchError("column index out of range")
        coo = sp.coo_matrix((vals, (rows, cols)), shape=(nrows, ncols))
        return SparseMatrix.from_scipy(coo)

    @staticmethod
    def from_scipy(m) -> "SparseMatrix":
        c = _as_canonical_csr(m)
        return SparseMatrix(
            nrows=c.shape[0],
            ncols=c.shape[1],
            indptr=np.asarray(c.indptr, dtype=np.int64),
            indices=np.asarray(c.indices, dtype=np.int64),
            data=np.asarray(c.data, dtype=np.float64),
        )

    @staticmethod
    def identity(n: int) -> "SparseMatrix":
        return SparseMatrix.from_scipy(sp.identity(n, format="csr"))

    @staticmethod
    def diagonal(d) -> "SparseMatrix":
        d = np.asarray(d, dtype=np.float64)
        return SparseMatrix.from_scipy(sp.diags(d, format="csr"))

    @cached_property
    def csr(self) -> sp.csr_matrix:
        # scipy only reads these arrays; construction does not copy.
        return sp.csr_matrix(
            (self.data, self.indices, self.indptr), shape=(self.nrows, self.ncols)
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    def diag(self) -> np.ndarray:
        return self.csr.diagonal()

    def to_dense(self) -> np.ndarray:
        return np.asarray(self.csr.todense(), dtype=np.float64)

    def validate(self) -> None:
        """Check the CSR structure invariants; raises ValueError on breakage."""
        if self.indptr.shape != (self.nrows + 1,):
            raise ValueError("indptr length must be nrows + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != self.data.size:
            raise ValueError("indptr endpoints inconsistent with data")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be nondecreasing")
        if self.indices.size != self.data.size:
            raise ValueError("indices and data lengths differ")
        for i in range(self.nrows):
            lo, hi = self.indptr[i], self.indptr[i + 1]
            row_cols = self.indices[lo:hi]
            if row_cols.size:
                if row_cols.min() < 0 or row_cols.max() >= self.ncols:
                    raise ValueError("column index out of range")
                if np.any(np.diff(row_cols) <= 0):
                    raise ValueError("column indices must strictly increase within a row")


def spmv(m: SparseMatrix, x: np.ndarray) -> np.ndarray:
    """Sparse matrix-vector product m @ x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (m.ncols,):
        raise DimensionMismatchError(
            f"spmv: vector of length {x.shape} against matrix {m.shape}"
        )
    return m.csr @ x


def sparse_transpose(m: SparseMatrix) -> SparseMatrix:
    """Transpose, returned in canonical CSR form."""
    return SparseMatrix.from_scipy(m.csr.T)


def sparse_add_scaled(a: SparseMatrix, b: SparseMatrix, s: float, t: float) -> SparseMatrix:
    """s*a + t*b on the union sparsity pattern.

    Cancellation keeps structural entries with zero values; they are not
    pruned. A zero coefficient short-circuits to a scaled copy of the other
    operand so s=1, t=0 returns a's pattern exactly.
    """
    if a.shape != b.shape:
        raise DimensionMismatchError(f"add_scaled: shapes {a.shape} vs {b.shape}")
    if t == 0.0:
        return SparseMatrix.from_scipy(a.csr * s)
    if s == 0.0:
        return SparseMatrix.from_scipy(b.csr * t)
    # Concatenated-COO addition: scipy's csr + csr would prune entries whose
    # values cancel, but the COO round trip only merges duplicates.
    rows = np.concatenate(
        [
            np.repeat(np.arange(a.nrows), np.diff(a.indptr)),
            np.repeat(np.arange(b.nrows), np.diff(b.indptr)),
        ]
    )
    cols = np.concatenate([a.indices, b.indices])
    vals = np.concatenate([a.data * s, b.data * t])
    return SparseMatrix.from_coo(a.nrows, a.ncols, rows, cols, vals)


def sparse_triple_diag(a: SparseMatrix, diag_vals: np.ndarray) -> SparseMatrix:
    """Symmetric triple product a^T * diag(diag_vals) * a.

    diag_vals must be strictly positive (the use case is inverse lumped-mass
    weights), so the result is symmetric positive semidefinite. The product
    is symmetrized exactly to kill last-ulp asymmetry from summation order.
    """
    d = np.asarray(diag_vals, dtype=np.float64)
    if d.shape != (a.nrows,):
        raise DimensionMismatchError("triple product: diagonal length must equal a.nrows")
    if np.any(d <= 0.0):
        raise NonpositiveDiagonalError("triple product requires positive diagonal entries")
    scaled = sp.diags(d) @ a.csr
    prod = (a.csr.T @ scaled).tocsr()
    sym = (prod + prod.T) * 0.5
    return SparseMatrix.from_scipy(sym)


class SparseLU:
    """Cached sparse LU factorization (SuperLU, COLAMD column ordering) of a
    square sparse matrix (SparseMatrix or scipy sparse); calling it solves
    m x = r.

    Every solve is refined against m. By default refinement stops on the
    normwise backward error ||m x - r|| / (||m||_F ||x|| + ||r||) <= tol, as
    the dense solvers do. With residual=True it stops on the true relative
    residual ||m x - r|| <= tol * ||r|| instead. name labels the matrix in
    SingularMatrixError and RefinementError messages.
    """

    def __init__(self, m, name: str, tol: float, residual: bool = False):
        self.name = name
        self._m = m.csr if isinstance(m, SparseMatrix) else m
        self._tol = tol
        self._norm = 0.0 if residual else float(spla.norm(self._m))
        try:
            self._lu = spla.splu(self._m.tocsc())
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
