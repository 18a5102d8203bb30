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
applications of P^{-1}: cached sparse LUs for the exact kinds, one fixed
multigrid cycle per block for bdal-lumped-inexact. Either way P^{-1} is a
fixed linear SPD map, as the MINRES theory requires.

Every block is a canonical scipy CSR matrix. K itself is never assembled:
applying it (apply_kkt) is six products with the n x n blocks. The
operators handed to the Krylov solvers (kkt_operator, Preconditioner.
as_operator, ReducedHessianOperator.as_operator,
regularization_prec_operator) are plain callables.

Every solve meant to be exact goes through one cached sparse LU
(:class:`SparseLU`) and meets its one contract, set in sparse.py alone: a
normwise backward error of at most EXACT_SOLVE_TOL against the sparse
matrix, or RefinementError. No solve passes a tolerance of its own. These
are the reference KKT solve, the factored BDAL blocks, bdal-exact's mass
solves and its augmented P2 system, the coarsest level of each multigrid cycle, the R*R
solve of the baseline preconditioner, and the forward and adjoint PDE
solves (one LU of A per ProblemOperators, made by the reduced-Hessian
CG, its only reader; synthesize_data factors A in an LU of its own that
it frees on return). Only the spectral verifier densifies, one n x n
block at a time: K's blocks as KktSystem.blocks() gives them, and the
preconditioner's P1 and P3 (Preconditioner.p1 and p3).

Every LU runs in SuperLU's symmetric mode (one ordering for rows and
columns, diagonal pivots). The saddle-point systems are put in
matched-pair order, rows and columns permuted so that every diagonal
block is SPD (Benzi, Golub, Liesen, Acta Numerica 14, 2005): the
reference factors

    [ A     0     -W       ] [ u  ]   [ 0    ]
    [ BtB   A      0       ] [ eta] = [ Bt y ]
    [ 0    -W      alpha*RR] [ q  ]   [ 0    ]

with the unknowns (u, eta, q) of each vertex interleaved, vertex by vertex
in the geometric nested-dissection order of mesh.nested_dissection_order
(George, SIAM J. Numer. Anal. 10, 1973), and factors it in that order.
bdal-exact's augmented P2 system interleaves its (z, mu) the same way,
and both go through one permuted solve (_permuted_solver). SparseLU
reads the ordering from the format: these two systems are the only CSC
matrices the package factors, and so the only LUs factored in the order
they are given. Every other factored matrix is exactly symmetric CSR,
which SuperLU takes as the CSC view m.T of m's own arrays and orders by
minimum degree on m^T + m: the lumped block 2 couples vertices two
apart, which one-line separators do not split, and the coarsest
multigrid levels are too small to gain.

Each matrix SuperLU factors exists once while it is factored. Both
permuted systems go from their blocks' entries straight into CSC, the
form SuperLU factors, so neither K nor a permuted CSR copy exists beside
them. SparseLU reads the precision from the dtype, and the reference
alone is factored in float32: its CSC is built in float32 and dropped
once factored, and each solve is refined in float64 against K's blocks
(apply_kkt), so no float64 3n x 3n matrix exists at all. Every other LU
is float64 and refined against the matrix it factored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
import scipy.sparse as sp

# perfbench/traced.py imports REDUCED_REGULARIZATION from kktprec.kkt.
from .config import (
    BDAL_EXACT,
    BDAL_KINDS,
    BDAL_LUMPED_EXACT,
    DEFAULT_NITSCHE_GAMMA,
    DEFAULT_REG_SHIFT,
    REDUCED_REGULARIZATION,
    default_rho,
)
from .fem import (
    assemble_mass,
    assemble_observation,
    assemble_regularization,
    assemble_stiffness_nitsche,
    lump_mass,
)
from .krylov import Operator
from .mesh import ObservationSet, TriMesh, nested_dissection_order
from .multigrid import Cycle
from .sparse import SparseLU


class UnknownPreconditionerError(ValueError):
    pass


class DimensionMismatchError(ValueError):
    """An input vector does not match the operator's dimension."""


class NonpositiveDiagonalError(ValueError):
    pass


def _diagonal(d: np.ndarray) -> sp.csr_matrix:
    """diag(d) in CSR, built directly. sp.diags builds a DIA matrix first,
    whose constructor calls np.unique, which loads numpy.ma."""
    index = np.arange(d.size + 1, dtype=np.int32)
    return sp.csr_matrix((d, index[:-1], index), shape=(d.size, d.size))


def _triple_product(a: sp.csr_matrix, d: np.ndarray) -> sp.csr_matrix:
    """a^T diag(d) a, symmetrized exactly to kill last-ulp asymmetry from
    summation order. d must be positive, so the result is SPSD."""
    if np.any(d <= 0.0):
        raise NonpositiveDiagonalError("triple product requires positive diagonal entries")
    prod = (a.T @ (_diagonal(d) @ a)).tocsr()
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

    @property
    def n(self) -> int:
        return self.mesh.n_vertices

    @cached_property
    def forward_solver(self) -> SparseLU:
        """LU of A, factored on first use and shared by every forward and
        adjoint solve of the reduced-Hessian CG on this instance, its only
        reader (synthesize_data factors its own)."""
        return SparseLU(self.forward, "forward")

    @cached_property
    def btb(self) -> sp.csr_matrix:
        """B^T B, formed once and shared by the KKT system of every alpha."""
        return _triple_product(self.observation, np.ones(self.observation.shape[0]))

    @cached_property
    def at_lumped_inv_a(self) -> sp.csr_matrix:
        """A^T W_L^(-1) A (W_L the lumped mass), shared by every lumped block 2."""
        return _triple_product(self.forward, 1.0 / self.mass_lumped)


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
        reg=assemble_regularization(mesh, mass, t=t),
        observation=assemble_observation(mesh, obs),
        obs=obs,
    )


@dataclass(frozen=True)
class KktSystem:
    """One assembled KKT system: the unscaled blocks are the operators'
    matrices, alpha is kept separately."""

    alpha: float
    y: np.ndarray  # observed data
    rhs: np.ndarray
    ops: ProblemOperators

    @property
    def reg(self) -> sp.csr_matrix:
        """R*R (the (1,1) block is alpha * reg)."""
        return self.ops.reg

    @property
    def btb(self) -> sp.csr_matrix:
        """B^T B."""
        return self.ops.btb

    @property
    def forward(self) -> sp.csr_matrix:
        """A."""
        return self.ops.forward

    @property
    def mass(self) -> sp.csr_matrix:
        """W."""
        return self.ops.mass

    @property
    def n(self) -> int:
        return self.ops.n

    @property
    def dim(self) -> int:
        return 3 * self.n

    def blocks(self) -> list[list[sp.csr_matrix | None]]:
        """K's 3 x 3 blocks, None for a zero block."""
        w, a = self.mass, self.forward
        return [[self.alpha * self.reg, None, -w], [None, self.btb, a], [-w, a, None]]


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
    return KktSystem(alpha=alpha, y=y, rhs=rhs, ops=ops)


def apply_kkt(sys: KktSystem, z: np.ndarray) -> np.ndarray:
    """K (q, u, eta), one n x n block product at a time, so K is never
    assembled."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (sys.dim,):
        raise DimensionMismatchError(f"KKT operator expects length {sys.dim}")
    n = sys.n
    q, u, eta = z[:n], z[n : 2 * n], z[2 * n :]
    out = np.empty(sys.dim)
    out[:n] = sys.alpha * (sys.reg @ q) - sys.mass @ eta
    out[n : 2 * n] = sys.btb @ u + sys.forward @ eta
    out[2 * n :] = sys.forward @ u - sys.mass @ q
    return out


def kkt_operator(sys: KktSystem) -> Operator:
    return lambda z: apply_kkt(sys, z)


def _permuted_csc(
    blocks: list[list[sp.csr_matrix | None]], rows: np.ndarray, cols: np.ndarray, dtype=np.float64
) -> sp.csc_matrix:
    """sp.bmat(blocks)[rows][:, cols] in CSC with values of dtype, array
    for array, for square CSR blocks of one size (None for a zero block).
    Each block's entries go straight to their places through the inverse
    row and column maps, so neither the block matrix nor a permuted CSR
    copy is formed, and float32 values are rounded from the blocks' own."""
    n = rows.size // len(blocks)
    place_row, place_col = np.empty(rows.size, dtype=np.intc), np.empty(cols.size, dtype=np.intc)
    place_row[rows] = np.arange(rows.size, dtype=np.intc)
    place_col[cols] = np.arange(cols.size, dtype=np.intc)
    parts = [
        (place_row[i * n : (i + 1) * n], place_col[j * n : (j + 1) * n], b)
        for i, block_row in enumerate(blocks)
        for j, b in enumerate(block_row)
        if b is not None
    ]
    r = np.concatenate([np.repeat(to_row, np.diff(b.indptr)) for to_row, _, b in parts])
    c = np.concatenate([to_col[b.indices] for _, to_col, b in parts])
    data = np.concatenate([b.data for _, _, b in parts], dtype=dtype)
    return sp.csc_matrix((data, (r, c)), shape=(rows.size, cols.size))


def _permuted_solver(
    blocks: list[list[sp.csr_matrix | None]],
    rows: np.ndarray,
    cols: np.ndarray,
    name: str,
    apply: Operator | None = None,
) -> Operator:
    """b -> z solving sp.bmat(blocks) z = b through one LU of the system
    permuted to rows and cols, built straight into CSC (_permuted_csc),
    which SparseLU factors in the order it is given: z[cols] solves the
    permuted system for b[rows]. Permuting rows and columns keeps the
    Frobenius norm and the residual norm, so the LU's backward-error
    contract holds for the unpermuted system too.

    Without apply the CSC is float64, and each solve is refined against
    it. Given apply, z -> sp.bmat(blocks) z in float64, the CSC is built
    in float32, so the LU is float32, and it is dropped once SuperLU has
    factored it; each solve is refined against apply, gathered to the
    permuted order, and against the Frobenius norm of the blocks' own
    entries (SparseLU's against): no float64 copy of the system exists."""
    if apply is None:
        lu = SparseLU(_permuted_csc(blocks, rows, cols), name)
    else:

        def permuted_apply(x: np.ndarray) -> np.ndarray:
            z = np.empty(cols.size)
            z[cols] = x
            return apply(z)[rows]

        norm = math.sqrt(sum(float(b.data @ b.data) for block_row in blocks for b in block_row if b is not None))
        csc = _permuted_csc(blocks, rows, cols, np.float32)
        lu = SparseLU(csc, name, against=(permuted_apply, norm))

    def solve(b: np.ndarray) -> np.ndarray:
        z = np.empty(cols.size)
        z[cols] = lu(b[rows])
        return z

    return solve


def _interleaved(mesh: TriMesh, blocks: tuple[int, ...]) -> np.ndarray:
    """Indices that interleave len(blocks) vectors of mesh.n_vertices
    entries vertex by vertex: entry len(blocks) k + j is the entry of vertex
    v_k in block blocks[j], with v the nested-dissection order of mesh."""
    n = mesh.n_vertices
    return (nested_dissection_order(mesh.nx, mesh.ny)[:, None] + [b * n for b in blocks]).ravel()


def reference_solution(sys: KktSystem) -> np.ndarray:
    """Sparse direct solve of the full KKT system to the exact-solve
    contract of every SparseLU: normwise backward error at most
    EXACT_SOLVE_TOL, which for a reasonably conditioned K implies a
    relative residual near that size.

    The LU is of K permuted in one step: row 3k + (0, 1, 2) is block row
    (3, 2, 1) of vertex v_k and column 3k + (0, 1, 2) is (u, eta, q) of
    v_k, with v the nested-dissection order of the mesh's vertices. Each
    vertex's diagonal blocks come from A, A and alpha*R*R, which are SPD,
    so SuperLU's symmetric mode pivots on them, and it factors in that
    order. The permuted matrix is built from K's blocks straight into CSC
    in float32, which halves the LU's values (Buttari et al., ACM TOMS 34,
    2008), and is dropped once SuperLU has factored it: no float64 copy of
    K exists, here or anywhere else. Every solve is refined in float64
    against K's blocks, each residual the six products of apply_kkt
    gathered to the permuted order and ||K||_F taken from the blocks'
    entries, while a correction still halves the backward error, so q is
    as accurate as a float64 LU's (Carson, Higham, SIAM J. Sci. Comput.
    40, 2018).
    """
    if float(np.linalg.norm(sys.rhs)) == 0.0:
        return np.zeros(sys.dim)
    rows, cols = _interleaved(sys.ops.mesh, (2, 1, 0)), _interleaved(sys.ops.mesh, (1, 2, 0))
    return _permuted_solver(sys.blocks(), rows, cols, "KKT", apply=kkt_operator(sys))(sys.rhs)


def _kind_mass(sys: KktSystem, kind: str) -> sp.csr_matrix:
    """Wt: the mass matrix for bdal-exact, its row-sum lumping otherwise."""
    return sys.mass if kind == BDAL_EXACT else _diagonal(sys.ops.mass_lumped)


@dataclass
class Preconditioner:
    """One preconditioner instance of sys; apply_inverse(r) = P^{-1} r,
    blockwise. kind is one of BDAL_KINDS. p1 = alpha R*R + rho Wt and
    p3 = Wt / rho, with Wt the kind's mass, are P's outer blocks in CSR.
    p1 is formed by build_preconditioner, for the solves and the spectral
    verifier alike; p3 only on first read, since the verifier alone reads
    it and no solve applies P3^-1 from it."""

    kind: str
    rho: float
    p1: sp.csr_matrix = field(repr=False)
    apply_inverse: Operator = field(repr=False)
    sys: KktSystem = field(repr=False)

    @cached_property
    def p3(self) -> sp.csr_matrix:
        return (1.0 / self.rho) * _kind_mass(self.sys, self.kind)

    def as_operator(self) -> Operator:
        return self.apply_inverse


def build_preconditioner(
    sys: KktSystem,
    kind: str,
    rho: float | None = None,
    inner_tol: float = 1e-2,
) -> Preconditioner:
    """Build a BDAL preconditioner for the KKT system.

    rho defaults to sqrt(alpha) (config.default_rho). Exact kinds solve
    their blocks with cached sparse LUs. The non-lumped kind
    applies P2^-1 through one LU of the 2n augmented system
    [[A, -W/rho], [BtB, A]] [z; mu] = [0; r], row-swapped so that both
    diagonal blocks are A and with (z, mu) interleaved per vertex in
    nested-dissection order, and factors on first apply, so a singular
    block raises there, not here.
    The inexact kind applies one fixed multigrid cycle per block
    (multigrid.Cycle): a V-cycle for block 1 and a W-cycle for block 2,
    which reduce to the coarse LU on meshes that cannot be halved.

    No factored matrix has a second copy while SuperLU runs: the augmented
    system is built straight into CSC (_permuted_solver, as for the
    reference), and every other factored matrix, each block, the mass
    matrix and each coarsest multigrid level, is exactly symmetric CSR,
    which SparseLU factors through its transpose view.

    inner_tol is read by no kind and not checked. It is still accepted
    because the benchmark's traced replica passes it.
    """
    if kind not in BDAL_KINDS:
        raise UnknownPreconditionerError(
            f"kind {kind!r} is not one of {BDAL_KINDS} (reduced regularization "
            "preconditioning lives on the reduced Hessian)"
        )
    if rho is None:
        rho = default_rho(sys.alpha)
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    n = sys.n
    p1 = sys.alpha * sys.reg + rho * _kind_mass(sys, kind)

    if kind == BDAL_EXACT:
        # Factored on first apply: the spectral verifier reads p1 and p3
        # and never applies this preconditioner. The augmented system's
        # Schur complement is P2, so its LU applies P2^-1 exactly.
        @cache
        def factors() -> tuple[SparseLU, SparseLU, Operator]:
            pairs = _interleaved(sys.ops.mesh, (0, 1))
            augmented = [[sys.forward, sys.mass / -rho], [sys.btb, sys.forward]]
            return (
                SparseLU(p1, "block 1"),
                SparseLU(sys.mass, "mass"),
                _permuted_solver(augmented, pairs, pairs, "block 2"),
            )

        solve1 = lambda r: factors()[0](r)
        solve2 = lambda r: factors()[2](np.concatenate([np.zeros(n), r]))[:n]
        solve3 = lambda r: rho * factors()[1](r)

    else:
        block2 = sys.btb + rho * sys.ops.at_lumped_inv_a
        if kind == BDAL_LUMPED_EXACT:
            solve1, solve2 = SparseLU(p1, "block 1"), SparseLU(block2, "block 2")
        else:
            mesh = sys.ops.mesh
            solve1 = Cycle(p1, mesh.nx, mesh.ny, 1, "block 1")
            solve2 = Cycle(block2, mesh.nx, mesh.ny, 2, "block 2")
        inv_w = 1.0 / sys.ops.mass_lumped
        solve3 = lambda r: rho * (inv_w * r)

    def apply_inverse(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        if r.shape != (3 * n,):
            raise DimensionMismatchError(f"preconditioner expects length {3 * n}")
        out = np.empty(3 * n)
        out[:n] = solve1(r[:n])
        out[n : 2 * n] = solve2(r[n : 2 * n])
        out[2 * n :] = solve3(r[2 * n :])
        return out

    return Preconditioner(kind=kind, rho=rho, p1=p1, apply_inverse=apply_inverse, sys=sys)


@dataclass
class ReducedHessianOperator:
    """Matrix-free reduced Hessian H = J^T J + alpha * R*R with J = B A^{-1} W.

    Applying H does a forward solve A u = W q, observation, an adjoint solve
    (A is symmetric, so the same matrix), and a mass-weighted pullback. The
    PDE solves use the instance's cached LU of A (ops.forward_solver).
    """

    sys: KktSystem

    @property
    def n(self) -> int:
        return self.sys.n

    @cached_property
    def reg_solver(self) -> SparseLU:
        """LU of R*R, factored on first use."""
        return SparseLU(self.sys.reg, "R*R")

    def apply(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (self.n,):
            raise DimensionMismatchError(f"reduced Hessian expects length {self.n}")
        sys = self.sys
        u = sys.ops.forward_solver(sys.mass @ q)
        w = sys.ops.forward_solver(sys.btb @ u)
        return sys.mass @ w + sys.alpha * (sys.reg @ q)

    def as_operator(self) -> Operator:
        return self.apply

    def rhs(self, y: np.ndarray, observation: sp.csr_matrix) -> np.ndarray:
        """Reduced right-hand side J^T y = W A^{-1} B^T y."""
        bty = observation.T @ np.asarray(y, dtype=np.float64)
        return self.sys.mass @ self.sys.ops.forward_solver(bty)


# perfbench/traced.py builds the operator by this name.
reduced_hessian = ReducedHessianOperator


def regularization_prec_operator(h: ReducedHessianOperator) -> Operator:
    """The baseline preconditioner: r -> (alpha * R*R)^{-1} r through h's
    cached LU of R*R."""

    def apply(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        if r.shape != (h.n,):
            raise DimensionMismatchError(f"regularization preconditioner expects length {h.n}")
        return h.reg_solver(r / h.sys.alpha)

    return apply


def synthesize_data(ops: ProblemOperators, q_true: np.ndarray) -> np.ndarray:
    """Noise-free observations of the state generated by q_true.

    A is factored here, by the same call as ops.forward_solver, and the LU
    is freed on return: it would otherwise stay alive through the
    reference factorization, while only the reduced-Hessian CG reads A's
    LU later."""
    u_true = SparseLU(ops.forward, "forward")(ops.mass @ np.asarray(q_true, dtype=np.float64))
    return ops.observation @ u_true
