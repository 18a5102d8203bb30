"""KKT systems for linear source inversion and their preconditioners.

The inverse problem: recover a source q on a rectangle from pointwise
observations of the state u solving the Poisson problem A u = q (Dirichlet
walls via Nitsche), with Tikhonov regularization alpha * ||R q||^2 where
R*R is a shifted Neumann Laplacian. First-order optimality gives one
symmetric indefinite system in (q, u, eta):

    [ alpha*RR   0      -W  ] [ q  ]   [ 0    ]
    [ 0          BtB    A   ] [ u  ] = [ Bt y ]
    [ -W         A      0   ] [ eta]   [ 0    ]

with W the mass matrix, A the stiffness matrix, B pointwise observation.

The block-diagonal augmented-Lagrangian (BDAL) preconditioner is

    P = diag( alpha*RR + rho*Wt,  BtB + rho*At Wt^{-1} A,  (1/rho)*Wt )

where Wt is the mass matrix (exact kind) or its row-sum lumping (lumped
kinds) and rho defaults to sqrt(alpha). MINRES with P needs only
applications of P^{-1}, built here from cached factorizations or inner CG
depending on the kind.

Every solve meant to be exact goes through one cached sparse LU
(:class:`SparseLU`) refined against the sparse matrix: the reference KKT
solve, the factored BDAL blocks and mass solves, the R*R solve of the
baseline preconditioner, and the forward and adjoint PDE solves (one LU of
A per ProblemOperators). Only the spectral verifier densifies, through
kkt_dense.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .fem import (
    DEFAULT_NITSCHE_GAMMA,
    DEFAULT_REG_SHIFT,
    assemble_mass,
    assemble_observation,
    assemble_regularization,
    assemble_stiffness_nitsche,
    lump_mass,
)
from .krylov import LinearOperator, inner_solve_to_tol, pcg
from .mesh import ObservationSet, TriMesh
from .sparse import (
    DimensionMismatchError,
    SparseLU,
    SparseMatrix,
    sparse_add_scaled,
    sparse_transpose,
    sparse_triple_diag,
    spmv,
)

BDAL_EXACT = "bdal-exact"
BDAL_LUMPED_EXACT = "bdal-lumped-exact"
BDAL_LUMPED_INEXACT = "bdal-lumped-inexact"
REDUCED_REGULARIZATION = "reduced-regularization"

BDAL_KINDS = (BDAL_EXACT, BDAL_LUMPED_EXACT, BDAL_LUMPED_INEXACT)
PRECONDITIONER_KINDS = BDAL_KINDS + (REDUCED_REGULARIZATION,)

EXACT_SOLVE_TOL = 1e-12


class UnknownPreconditionerError(ValueError):
    pass


@dataclass(frozen=True)
class ProblemOperators:
    """Assembled discrete operators of one source-inversion instance."""

    mesh: TriMesh
    mass: SparseMatrix
    mass_lumped: np.ndarray
    forward: SparseMatrix  # Nitsche stiffness, SPD
    reg: SparseMatrix  # R*R = Neumann stiffness + t * mass, SPD
    observation: SparseMatrix
    obs: ObservationSet
    t: float
    gamma0: float

    @property
    def n(self) -> int:
        return self.mesh.n_vertices

    @cached_property
    def forward_solver(self) -> SparseLU:
        """LU of A, factored on first use and shared by every forward and
        adjoint solve of this instance. Solves meet the true-residual
        contract ||A x - b|| <= EXACT_SOLVE_TOL * ||b|| or raise."""
        return SparseLU(self.forward, "forward", EXACT_SOLVE_TOL, residual=True)


def assemble_problem(
    mesh: TriMesh,
    obs: ObservationSet,
    t: float = DEFAULT_REG_SHIFT,
    gamma0: float = DEFAULT_NITSCHE_GAMMA,
) -> ProblemOperators:
    mass = assemble_mass(mesh)
    return ProblemOperators(
        mesh=mesh,
        mass=mass,
        mass_lumped=lump_mass(mass),
        forward=assemble_stiffness_nitsche(mesh, gamma0=gamma0),
        reg=assemble_regularization(mesh, t=t),
        observation=assemble_observation(mesh, obs),
        obs=obs,
        t=t,
        gamma0=gamma0,
    )


@dataclass(frozen=True)
class KktSystem:
    """One assembled KKT system; blocks are stored unscaled, alpha separately."""

    reg: SparseMatrix  # R*R (the (1,1) block is alpha * reg)
    btb: SparseMatrix  # Bt B
    forward: SparseMatrix  # A
    mass: SparseMatrix  # W
    alpha: float
    y: np.ndarray  # observed data
    rhs: np.ndarray
    ops: ProblemOperators

    @property
    def n(self) -> int:
        return self.mass.nrows

    @property
    def dim(self) -> int:
        return 3 * self.n


def build_kkt(ops: ProblemOperators, alpha: float, y: np.ndarray) -> KktSystem:
    """Assemble the optimality system for data y at regularization alpha."""
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (ops.observation.nrows,):
        raise DimensionMismatchError(
            f"data length {y.shape} does not match {ops.observation.nrows} observations"
        )
    n = ops.n
    bt = sparse_transpose(ops.observation)
    btb = sparse_triple_diag(ops.observation, np.ones(ops.observation.nrows))
    rhs = np.zeros(3 * n)
    rhs[n : 2 * n] = spmv(bt, y)
    return KktSystem(
        reg=ops.reg,
        btb=btb,
        forward=ops.forward,
        mass=ops.mass,
        alpha=alpha,
        y=y,
        rhs=rhs,
        ops=ops,
    )


def apply_kkt(sys: KktSystem, z: np.ndarray) -> np.ndarray:
    """Blockwise product of the KKT operator with (q, u, eta)."""
    n = sys.n
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (3 * n,):
        raise DimensionMismatchError(f"KKT operator expects length {3 * n}")
    q, u, eta = z[:n], z[n : 2 * n], z[2 * n :]
    out = np.empty(3 * n)
    out[:n] = sys.alpha * spmv(sys.reg, q) - spmv(sys.mass, eta)
    out[n : 2 * n] = spmv(sys.btb, u) + spmv(sys.forward, eta)
    out[2 * n :] = -spmv(sys.mass, q) + spmv(sys.forward, u)
    return out


def kkt_operator(sys: KktSystem) -> LinearOperator:
    return LinearOperator(sys.dim, sys.dim, lambda z: apply_kkt(sys, z))


def kkt_sparse(sys: KktSystem) -> sp.csc_matrix:
    """The 3n x 3n KKT matrix assembled from its sparse blocks."""
    w, a = sys.mass.csr, sys.forward.csr
    return sp.bmat(
        [[sys.alpha * sys.reg.csr, None, -w], [None, sys.btb.csr, a], [-w, a, None]],
        format="csc",
    )


def kkt_dense(sys: KktSystem) -> np.ndarray:
    """Materialize the 3n x 3n KKT matrix (desk scale)."""
    return kkt_sparse(sys).toarray()


def reference_solution(sys: KktSystem, tol: float = 1e-10) -> np.ndarray:
    """Sparse direct solve of the full KKT system: LU of the assembled 3n
    matrix, refined to normwise backward error <= tol, which for a
    reasonably conditioned K implies ||K z - rhs|| <= tol * ||rhs||."""
    if float(np.linalg.norm(sys.rhs)) == 0.0:
        return np.zeros(sys.dim)
    return SparseLU(kkt_sparse(sys), "KKT", tol)(sys.rhs)


@dataclass
class Preconditioner:
    """One preconditioner instance; apply the inverse via bdal_apply_inverse
    or as_operator(). kind is one of PRECONDITIONER_KINDS."""

    kind: str
    rho: float
    inner_tol: float
    dim: int
    _apply_inverse: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def as_operator(self) -> LinearOperator:
        return LinearOperator(self.dim, self.dim, self._apply_inverse)


def _bdal_blocks(sys: KktSystem, rho: float, lumped: bool):
    """Assemble block 1 and block 2 (explicit form) for the given mass choice."""
    if lumped:
        w_diag = sys.ops.mass_lumped
        mass_term = SparseMatrix.diagonal(w_diag)
    else:
        w_diag = None
        mass_term = sys.mass
    block1 = sparse_add_scaled(sys.reg, mass_term, sys.alpha, rho)
    lumped_inv = 1.0 / (w_diag if w_diag is not None else sys.ops.mass_lumped)
    block2_lumped = sparse_add_scaled(
        sys.btb, sparse_triple_diag(sys.forward, lumped_inv), 1.0, rho
    )
    return block1, block2_lumped, w_diag


def build_preconditioner(
    sys: KktSystem,
    kind: str,
    rho: float | None = None,
    inner_tol: float = 1e-2,
) -> Preconditioner:
    """Build a BDAL preconditioner for the KKT system.

    rho defaults to sqrt(alpha). Exact kinds solve their factored blocks
    with cached sparse LUs refined to backward error 1e-12; the non-lumped
    kind inverts its implicit second block by nested CG to 1e-12, with LU
    mass solves inside and the factored lumped block as its preconditioner.
    The inexact kind runs Jacobi-CG to inner_tol on both sparse blocks.
    """
    if kind not in BDAL_KINDS:
        raise UnknownPreconditionerError(
            f"kind {kind!r} is not one of {BDAL_KINDS} (reduced regularization "
            "preconditioning lives on the reduced Hessian)"
        )
    if rho is None:
        rho = float(np.sqrt(sys.alpha))
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if not (0.0 < inner_tol < 1.0):
        raise ValueError("inner_tol must lie in (0, 1)")
    n = sys.n

    if kind == BDAL_EXACT:
        block1, block2_lumped, _ = _bdal_blocks(sys, rho, lumped=False)
        solve1 = SparseLU(block1, "block 1", EXACT_SOLVE_TOL)
        mass_solver = SparseLU(sys.mass, "mass", EXACT_SOLVE_TOL)
        # Implicit block 2: each application performs one mass solve. The
        # explicit lumped block is spectrally close, so its factorization
        # preconditions the nested CG.
        lumped_guide = SparseLU(block2_lumped, "block 2", EXACT_SOLVE_TOL)

        def apply_block2(z: np.ndarray) -> np.ndarray:
            az = spmv(sys.forward, z)
            return spmv(sys.btb, z) + rho * spmv(sys.forward, mass_solver(az))

        block2_op = LinearOperator(n, n, apply_block2)
        guide_op = LinearOperator(n, n, lumped_guide)

        def solve2(r: np.ndarray) -> np.ndarray:
            report = pcg(block2_op, guide_op, r, tol=EXACT_SOLVE_TOL, maxit=50 * n)
            return report.solution

        def solve3(r: np.ndarray) -> np.ndarray:
            return rho * mass_solver(r)

    else:
        block1, block2, w_diag = _bdal_blocks(sys, rho, lumped=True)
        if kind == BDAL_LUMPED_EXACT:
            solve1 = SparseLU(block1, "block 1", EXACT_SOLVE_TOL)
            solve2 = SparseLU(block2, "block 2", EXACT_SOLVE_TOL)
        else:
            solve1 = lambda r: inner_solve_to_tol(block1, r, inner_tol)
            solve2 = lambda r: inner_solve_to_tol(block2, r, inner_tol)
        inv_w = 1.0 / w_diag

        def solve3(r: np.ndarray) -> np.ndarray:
            return rho * (inv_w * r)

    def apply_inverse(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        if r.shape != (3 * n,):
            raise DimensionMismatchError(f"preconditioner expects length {3 * n}")
        out = np.empty(3 * n)
        out[:n] = solve1(r[:n])
        out[n : 2 * n] = solve2(r[n : 2 * n])
        out[2 * n :] = solve3(r[2 * n :])
        return out

    return Preconditioner(
        kind=kind, rho=rho, inner_tol=inner_tol, dim=3 * n, _apply_inverse=apply_inverse
    )


def bdal_apply_inverse(p: Preconditioner, r: np.ndarray) -> np.ndarray:
    """x = P^{-1} r, blockwise."""
    return p._apply_inverse(r)


@dataclass
class ReducedHessianOperator:
    """Matrix-free reduced Hessian H = J^T J + alpha * R*R with J = B A^{-1} W.

    Applying H does a forward solve A u = W q, observation, an adjoint solve
    (A is symmetric, so the same matrix), and a mass-weighted pullback. The
    PDE solves use the instance's cached LU of A (forward_solver).
    """

    forward_solver: SparseLU
    mass: SparseMatrix
    btb: SparseMatrix
    reg: SparseMatrix
    alpha: float
    _reg_solver: SparseLU | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.mass.nrows

    def apply(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (self.n,):
            raise DimensionMismatchError(f"reduced Hessian expects length {self.n}")
        u = self.forward_solver(spmv(self.mass, q))
        w = self.forward_solver(spmv(self.btb, u))
        return spmv(self.mass, w) + self.alpha * spmv(self.reg, q)

    def as_operator(self) -> LinearOperator:
        return LinearOperator(self.n, self.n, self.apply)

    def rhs(self, y: np.ndarray, observation: SparseMatrix) -> np.ndarray:
        """Reduced right-hand side J^T y = W A^{-1} B^T y."""
        bty = spmv(sparse_transpose(observation), np.asarray(y, dtype=np.float64))
        return spmv(self.mass, self.forward_solver(bty))


def reduced_hessian(sys: KktSystem) -> ReducedHessianOperator:
    return ReducedHessianOperator(
        forward_solver=sys.ops.forward_solver,
        mass=sys.mass,
        btb=sys.btb,
        reg=sys.reg,
        alpha=sys.alpha,
    )


def reduced_hessian_apply(h: ReducedHessianOperator, q: np.ndarray) -> np.ndarray:
    return h.apply(q)


def regularization_prec_apply(h: ReducedHessianOperator, r: np.ndarray) -> np.ndarray:
    """Solve alpha * (R*R) x = r with a cached sparse LU refined to backward
    error 1e-12; the baseline preconditioner."""
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (h.n,):
        raise DimensionMismatchError(f"regularization preconditioner expects length {h.n}")
    if h._reg_solver is None:
        h._reg_solver = SparseLU(h.reg, "R*R", EXACT_SOLVE_TOL)
    return h._reg_solver(r / h.alpha)


def regularization_prec_operator(h: ReducedHessianOperator) -> LinearOperator:
    return LinearOperator(h.n, h.n, lambda r: regularization_prec_apply(h, r))


def synthesize_data(ops: ProblemOperators, q_true: np.ndarray) -> np.ndarray:
    """Noise-free observations of the state generated by q_true; the forward
    solve meets ||A u - W q|| <= EXACT_SOLVE_TOL * ||W q|| or raises."""
    u_true = ops.forward_solver(spmv(ops.mass, np.asarray(q_true, dtype=np.float64)))
    return spmv(ops.observation, u_true)
