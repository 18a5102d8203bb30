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

Every block is a canonical scipy CSR matrix. KktSystem.matrix assembles K
once per system; applying K (apply_kkt) is one sparse product with it. The
operators handed to the Krylov solvers (kkt_operator, Preconditioner.
as_operator, ReducedHessianOperator.as_operator,
regularization_prec_operator) are plain callables.

Every solve meant to be exact goes through one cached sparse LU
(:class:`SparseLU`) refined against the sparse matrix: the reference KKT
solve, the factored BDAL blocks and mass solves, the R*R solve of the
baseline preconditioner, and the forward and adjoint PDE solves (one LU of
A per ProblemOperators). Only the spectral verifier densifies, one n x n
block of KktSystem.matrix at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

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
from .krylov import Operator, inner_solve_to_tol, pcg
from .mesh import ObservationSet, TriMesh
from .sparse import SparseLU

BDAL_EXACT = "bdal-exact"
BDAL_LUMPED_EXACT = "bdal-lumped-exact"
BDAL_LUMPED_INEXACT = "bdal-lumped-inexact"
REDUCED_REGULARIZATION = "reduced-regularization"

BDAL_KINDS = (BDAL_EXACT, BDAL_LUMPED_EXACT, BDAL_LUMPED_INEXACT)
PRECONDITIONER_KINDS = BDAL_KINDS + (REDUCED_REGULARIZATION,)

EXACT_SOLVE_TOL = 1e-12


class UnknownPreconditionerError(ValueError):
    pass


class DimensionMismatchError(ValueError):
    """An input vector does not match the operator's dimension."""


class NonpositiveDiagonalError(ValueError):
    pass


def _triple_product(a: sp.csr_matrix, d: np.ndarray) -> sp.csr_matrix:
    """a^T diag(d) a, symmetrized exactly to kill last-ulp asymmetry from
    summation order. d must be positive, so the result is SPSD."""
    if np.any(d <= 0.0):
        raise NonpositiveDiagonalError("triple product requires positive diagonal entries")
    prod = (a.T @ (sp.diags(d) @ a)).tocsr()
    return (prod + prod.T) * 0.5


@dataclass(frozen=True)
class ProblemOperators:
    """Assembled discrete operators of one source-inversion instance."""

    mesh: TriMesh
    mass: sp.csr_matrix
    mass_lumped: np.ndarray
    forward: sp.csr_matrix  # Nitsche stiffness, SPD
    reg: sp.csr_matrix  # R*R = Neumann stiffness + t * mass, SPD
    observation: sp.csr_matrix
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

    reg: sp.csr_matrix  # R*R (the (1,1) block is alpha * reg)
    btb: sp.csr_matrix  # Bt B
    forward: sp.csr_matrix  # A
    mass: sp.csr_matrix  # W
    alpha: float
    y: np.ndarray  # observed data
    rhs: np.ndarray
    ops: ProblemOperators

    @property
    def n(self) -> int:
        return self.mass.shape[0]

    @property
    def dim(self) -> int:
        return 3 * self.n

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """The 3n x 3n KKT matrix, assembled from its blocks on first use."""
        w, a = self.mass, self.forward
        return sp.bmat(
            [[self.alpha * self.reg, None, -w], [None, self.btb, a], [-w, a, None]],
            format="csr",
        )


def build_kkt(ops: ProblemOperators, alpha: float, y: np.ndarray) -> KktSystem:
    """Assemble the optimality system for data y at regularization alpha."""
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    y = np.asarray(y, dtype=np.float64)
    n_obs = ops.observation.shape[0]
    if y.shape != (n_obs,):
        raise DimensionMismatchError(f"data length {y.shape} does not match {n_obs} observations")
    n = ops.n
    rhs = np.zeros(3 * n)
    rhs[n : 2 * n] = ops.observation.T @ y
    return KktSystem(
        reg=ops.reg,
        btb=_triple_product(ops.observation, np.ones(n_obs)),
        forward=ops.forward,
        mass=ops.mass,
        alpha=alpha,
        y=y,
        rhs=rhs,
        ops=ops,
    )


def apply_kkt(sys: KktSystem, z: np.ndarray) -> np.ndarray:
    """K (q, u, eta): one product with the assembled KKT matrix."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (sys.dim,):
        raise DimensionMismatchError(f"KKT operator expects length {sys.dim}")
    return sys.matrix @ z


def kkt_operator(sys: KktSystem) -> Operator:
    return lambda z: apply_kkt(sys, z)


def reference_solution(sys: KktSystem, tol: float = 1e-10) -> np.ndarray:
    """Sparse direct solve of the full KKT system: LU of the assembled 3n
    matrix, refined to normwise backward error <= tol, which for a
    reasonably conditioned K implies ||K z - rhs|| <= tol * ||rhs||."""
    if float(np.linalg.norm(sys.rhs)) == 0.0:
        return np.zeros(sys.dim)
    return SparseLU(sys.matrix, "KKT", tol)(sys.rhs)


@dataclass
class Preconditioner:
    """One preconditioner instance; apply_inverse(r) = P^{-1} r, blockwise.
    kind is one of PRECONDITIONER_KINDS."""

    kind: str
    rho: float
    inner_tol: float
    apply_inverse: Operator = field(repr=False)

    def as_operator(self) -> Operator:
        return self.apply_inverse


def _bdal_blocks(sys: KktSystem, rho: float, lumped: bool):
    """Assemble block 1 and block 2 (explicit form) for the given mass choice."""
    w_diag = sys.ops.mass_lumped
    mass_term = sp.diags(w_diag) if lumped else sys.mass
    block1 = sys.alpha * sys.reg + rho * mass_term
    block2_lumped = sys.btb + rho * _triple_product(sys.forward, 1.0 / w_diag)
    return block1, block2_lumped


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
    It factors on first apply, so a singular block raises there, not here.
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
        # Factored on first apply: the spectral verifier reads only kind
        # and rho, and never applies this preconditioner.
        @cache
        def factors() -> tuple[SparseLU, SparseLU, SparseLU]:
            block1, block2_lumped = _bdal_blocks(sys, rho, lumped=False)
            return (
                SparseLU(block1, "block 1", EXACT_SOLVE_TOL),
                SparseLU(sys.mass, "mass", EXACT_SOLVE_TOL),
                SparseLU(block2_lumped, "block 2", EXACT_SOLVE_TOL),
            )

        solve1 = lambda r: factors()[0](r)
        mass_solve = lambda r: factors()[1](r)

        # Implicit block 2: each application performs one mass solve. The
        # explicit lumped block is spectrally close, so its factorization
        # preconditions the nested CG.
        def apply_block2(z: np.ndarray) -> np.ndarray:
            return sys.btb @ z + rho * (sys.forward @ mass_solve(sys.forward @ z))

        def solve2(r: np.ndarray) -> np.ndarray:
            return pcg(apply_block2, factors()[2], r, tol=EXACT_SOLVE_TOL, maxit=50 * n).solution

        def solve3(r: np.ndarray) -> np.ndarray:
            return rho * mass_solve(r)

    else:
        block1, block2 = _bdal_blocks(sys, rho, lumped=True)
        if kind == BDAL_LUMPED_EXACT:
            solve1 = SparseLU(block1, "block 1", EXACT_SOLVE_TOL)
            solve2 = SparseLU(block2, "block 2", EXACT_SOLVE_TOL)
        else:
            solve1 = lambda r: inner_solve_to_tol(block1, r, inner_tol)
            solve2 = lambda r: inner_solve_to_tol(block2, r, inner_tol)
        inv_w = 1.0 / sys.ops.mass_lumped

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

    return Preconditioner(kind=kind, rho=rho, inner_tol=inner_tol, apply_inverse=apply_inverse)


@dataclass
class ReducedHessianOperator:
    """Matrix-free reduced Hessian H = J^T J + alpha * R*R with J = B A^{-1} W.

    Applying H does a forward solve A u = W q, observation, an adjoint solve
    (A is symmetric, so the same matrix), and a mass-weighted pullback. The
    PDE solves use the instance's cached LU of A (forward_solver).
    """

    forward_solver: SparseLU
    mass: sp.csr_matrix
    btb: sp.csr_matrix
    reg: sp.csr_matrix
    alpha: float

    @property
    def n(self) -> int:
        return self.mass.shape[0]

    @cached_property
    def reg_solver(self) -> SparseLU:
        """LU of R*R, factored on first use, refined to backward error 1e-12."""
        return SparseLU(self.reg, "R*R", EXACT_SOLVE_TOL)

    def apply(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (self.n,):
            raise DimensionMismatchError(f"reduced Hessian expects length {self.n}")
        u = self.forward_solver(self.mass @ q)
        w = self.forward_solver(self.btb @ u)
        return self.mass @ w + self.alpha * (self.reg @ q)

    def as_operator(self) -> Operator:
        return self.apply

    def rhs(self, y: np.ndarray, observation: sp.csr_matrix) -> np.ndarray:
        """Reduced right-hand side J^T y = W A^{-1} B^T y."""
        bty = observation.T @ np.asarray(y, dtype=np.float64)
        return self.mass @ self.forward_solver(bty)


def reduced_hessian(sys: KktSystem) -> ReducedHessianOperator:
    return ReducedHessianOperator(
        forward_solver=sys.ops.forward_solver,
        mass=sys.mass,
        btb=sys.btb,
        reg=sys.reg,
        alpha=sys.alpha,
    )


def regularization_prec_operator(h: ReducedHessianOperator) -> Operator:
    """The baseline preconditioner: r -> (alpha * R*R)^{-1} r through h's
    cached LU of R*R."""

    def apply(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        if r.shape != (h.n,):
            raise DimensionMismatchError(f"regularization preconditioner expects length {h.n}")
        return h.reg_solver(r / h.alpha)

    return apply


def synthesize_data(ops: ProblemOperators, q_true: np.ndarray) -> np.ndarray:
    """Noise-free observations of the state generated by q_true; the forward
    solve meets ||A u - W q|| <= EXACT_SOLVE_TOL * ||W q|| or raises."""
    u_true = ops.forward_solver(ops.mass @ np.asarray(q_true, dtype=np.float64))
    return ops.observation @ u_true
