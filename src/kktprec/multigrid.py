"""Fixed geometric multigrid cycles on the nested mesh ladder.

Halving both cell counts of a TriMesh gives a mesh whose triangles are
unions of the fine ones (both split along the up-right diagonal), so
every coarse P1 function is a fine P1 function. Prolongation is coarse
P1 interpolation at the fine vertices, restriction its transpose, and
coarse operators are Galerkin products P^T A P. A hierarchy halves while
both cell counts are even; its coarsest level is solved by a sparse LU.

Smoothing is degree-2 Chebyshev in D^-1 A on [lam/10, lam], lam the
Gershgorin bound on lambda_max(D^-1 A). The same polynomial before and
after the coarse correction makes each cycle a fixed, linear, symmetric
positive definite approximation of A^-1, provided lam >= lambda_max,
which Gershgorin guarantees and a power-iteration estimate does not
(Briggs, Henson, McCormick, A Multigrid Tutorial, 2nd ed., SIAM 2000).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .sparse import SparseLU


def prolongation(nx: int, ny: int) -> sp.csr_matrix:
    """Interpolation from the nx x ny mesh to the 2nx x 2ny mesh: fine
    vertex (i, j) is the mean of coarse vertices (i//2, j//2) and
    (ceil(i/2), ceil(j/2)), which is exact for the up-right diagonal split."""
    fi, fj = (g.ravel() for g in np.meshgrid(np.arange(2 * nx + 1), np.arange(2 * ny + 1)))
    rows = np.tile(np.arange(fi.size), 2)
    cols = np.concatenate([(fj // 2) * (nx + 1) + fi // 2, ((fj + 1) // 2) * (nx + 1) + (fi + 1) // 2])
    return sp.csr_matrix((np.full(rows.size, 0.5), (rows, cols)), shape=(fi.size, (nx + 1) * (ny + 1)))


def gershgorin_bound(a: sp.csr_matrix) -> float:
    """max_i sum_j |a_ij| / a_ii, an upper bound on lambda_max(D^-1 A)."""
    return float(np.max(np.asarray(abs(a).sum(axis=1)).ravel() / a.diagonal()))


class Cycle:
    """One multigrid cycle for the SPD matrix a on the nx x ny mesh;
    calling it applies the cycle's approximate inverse to b. gamma = 1 is
    a V-cycle, gamma = 2 a W-cycle. levels is the number of smoothing
    levels, 0 when the mesh cannot be halved (then the cycle is the LU)."""

    def __init__(self, a: sp.csr_matrix, nx: int, ny: int, gamma: int, name: str):
        self.gamma = gamma
        self.matrices, self.prolongations, self.restrictions = [a], [], []
        while nx % 2 == 0 and ny % 2 == 0:
            nx, ny = nx // 2, ny // 2
            p = prolongation(nx, ny)
            c = (p.T @ (self.matrices[-1] @ p)).tocsr()
            self.matrices.append((c + c.T) * 0.5)
            self.prolongations.append(p)
            self.restrictions.append(p.T.tocsr())  # p.T would build a new matrix per call
        self.smoothers = [(1.0 / m.diagonal(), gershgorin_bound(m)) for m in self.matrices[:-1]]
        self.coarse = SparseLU(self.matrices[-1], name)

    @property
    def levels(self) -> int:
        return len(self.prolongations)

    def _smooth(self, k: int, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Two Chebyshev steps from x, whose residual on level k is r."""
        a, (inv_d, lam) = self.matrices[k], self.smoothers[k]
        theta, delta = 0.55 * lam, 0.45 * lam  # centre and half-width of [lam/10, lam]
        d = inv_d * r / theta
        rho = delta / theta
        rho_new = 1.0 / (2.0 * theta / delta - rho)
        r = r - a @ d
        return x + d + (rho_new * rho * d + 2.0 * rho_new / delta * (inv_d * r))

    def __call__(self, b: np.ndarray, k: int = 0) -> np.ndarray:
        if k == self.levels:
            return self.coarse(b)
        a, p = self.matrices[k], self.prolongations[k]
        x = self._smooth(k, np.zeros_like(b), b)
        rc = self.restrictions[k] @ (b - a @ x)
        ec = self(rc, k + 1)
        if k + 1 < self.levels:  # a second visit to the exact coarse solve gains nothing
            for _ in range(self.gamma - 1):
                ec = ec + self(rc - self.matrices[k + 1] @ ec, k + 1)
        x = x + p @ ec
        return self._smooth(k, x, b - a @ x)
