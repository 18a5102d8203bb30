"""Multigrid cycles on the nested mesh ladder: prolongation, hierarchy,
and the cycles that apply the inexact BDAL blocks."""

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import make_instance, probe_columns
from kktprec.config import BDAL_LUMPED_EXACT, BDAL_LUMPED_INEXACT
from kktprec.fem import assemble_mass, assemble_observation
from kktprec.harness import generate_observations
from kktprec.kkt import _triple_product, build_preconditioner, kkt_operator
from kktprec.krylov import minres
from kktprec.mesh import build_mesh
from kktprec.multigrid import Cycle, gershgorin_bound, prolongation


@pytest.mark.parametrize("coarse", [(29, 20), (10, 7)])
def test_prolongation_is_exact_on_nested_meshes(coarse):
    nx, ny = coarse
    obs = generate_observations(3, 400, 1.45, 1.0)
    b_coarse = assemble_observation(build_mesh(1.45, 1.0, nx, ny), obs)
    b_fine = assemble_observation(build_mesh(1.45, 1.0, 2 * nx, 2 * ny), obs)
    v = np.random.default_rng(21).standard_normal(b_coarse.shape[1])
    expected = b_coarse @ v
    assert np.max(np.abs(b_fine @ (prolongation(nx, ny) @ v) - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_galerkin_mass_is_the_coarse_mass():
    p = prolongation(10, 7)
    fine = assemble_mass(build_mesh(1.45, 1.0, 20, 14))
    coarse = assemble_mass(build_mesh(1.45, 1.0, 10, 7))
    assert abs(p.T @ fine @ p - coarse).max() <= 1e-15 * abs(coarse).max()


@pytest.mark.parametrize("shape, levels", [((58, 40), 1), ((232, 160), 3), ((29, 20), 0), ((10, 7), 0)])
def test_hierarchy_halves_while_both_counts_are_even(shape, levels):
    nx, ny = shape
    cycle = Cycle(assemble_mass(build_mesh(1.45, 1.0, nx, ny)), nx, ny, 1, "mass")
    assert cycle.levels == levels
    n_coarse = (nx // 2**levels + 1) * (ny // 2**levels + 1)
    assert cycle.matrices[-1].shape == (n_coarse, n_coarse)


def test_without_levels_the_inexact_kind_is_the_lumped_lu():
    sys = make_instance(nx=10, ny=7, n_obs=50, alpha=1e-6)
    r = np.random.default_rng(22).standard_normal(sys.dim)
    exact = build_preconditioner(sys, BDAL_LUMPED_EXACT).apply_inverse(r)
    inexact = build_preconditioner(sys, BDAL_LUMPED_INEXACT).apply_inverse(r)
    assert np.linalg.norm(inexact - exact) <= 1e-14 * np.linalg.norm(exact)


@pytest.fixture(scope="module")
def blocks_20x14():
    """The lumped BDAL blocks of a 20x14 instance, which has one level."""
    sys = make_instance(nx=20, ny=14, n_obs=200, alpha=1e-6)
    rho = np.sqrt(sys.alpha)
    w = sys.ops.mass_lumped
    block1 = sys.alpha * sys.reg + rho * sp.diags(w)
    block2 = sys.btb + rho * _triple_product(sys.forward, 1.0 / w)
    return sys, [block1.tocsr(), block2]


def test_inexact_preconditioner_is_linear_and_spd(blocks_20x14):
    sys, _ = blocks_20x14
    apply = build_preconditioner(sys, BDAL_LUMPED_INEXACT).apply_inverse
    m = probe_columns(apply, sys.dim)
    assert np.linalg.norm(m - m.T) <= 1e-12 * np.linalg.norm(m)
    assert np.linalg.eigvalsh(0.5 * (m + m.T))[0] > 0.0
    rng = np.random.default_rng(23)
    x, y = rng.standard_normal(sys.dim), rng.standard_normal(sys.dim)
    combined = apply(2.5 * x - 0.75 * y)
    assert np.linalg.norm(combined - (2.5 * apply(x) - 0.75 * apply(y))) <= 1e-13 * np.linalg.norm(combined)


def test_each_cycle_approximates_its_block(blocks_20x14):
    sys, blocks = blocks_20x14
    mesh = sys.ops.mesh
    for gamma, a in zip((1, 2), blocks):
        cycle = Cycle(a, mesh.nx, mesh.ny, gamma, "block")
        assert cycle.levels == 1
        # cycle(a x) = x - E x with E the A-orthogonal error propagator,
        # whose eigenvalues lie in [0, 1): the cycle reduces every error.
        e = np.eye(a.shape[0]) - probe_columns(lambda x: cycle(a @ x), a.shape[0])
        eigs = np.linalg.eigvals(e).real
        assert eigs.min() > -1e-10 and eigs.max() < 0.9


def test_cycles_on_three_levels_are_symmetric_and_spd():
    # 24x16 halves three times, so block 2's W-cycle visits levels 1 and 2
    # twice; the 20x14 blocks above have one level and never do
    sys = make_instance(nx=24, ny=16, n_obs=200, alpha=1e-6)
    p = build_preconditioner(sys, BDAL_LUMPED_INEXACT)
    block2 = sys.btb + p.rho * sys.ops.at_lumped_inv_a
    for gamma, a in zip((1, 2), (p.p1, block2)):
        cycle = Cycle(a, 24, 16, gamma, "block")
        assert cycle.levels == 3
        m = probe_columns(cycle, a.shape[0])
        assert np.linalg.norm(m - m.T) <= 1e-12 * np.linalg.norm(m)
        assert np.linalg.eigvalsh(0.5 * (m + m.T))[0] > 0.0


def test_gershgorin_bounds_the_jacobi_spectrum(blocks_20x14):
    _, blocks = blocks_20x14
    for a in blocks:
        d = np.sqrt(a.diagonal())
        lam_max = np.linalg.eigvalsh(a.toarray() / np.outer(d, d))[-1]
        assert gershgorin_bound(a) >= lam_max


def test_inexact_minres_converges_on_116x80():
    sys = make_instance(nx=116, ny=80, n_obs=500, alpha=1e-6)
    prec = build_preconditioner(sys, BDAL_LUMPED_INEXACT)
    report = minres(kkt_operator(sys), prec.as_operator(), sys.rhs, tol=1e-10, maxit=200)
    assert report.converged
    assert report.iterations <= 150
