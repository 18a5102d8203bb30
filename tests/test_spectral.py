import copy
import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from filter_model import (
    AssumptionViolationError,
    SpectralFilterModel,
    amgm_constants_exact,
    amgm_constants_from_filter,
    laplacian_source_model,
    stability_sigma_max,
)
from helpers import assembled_kkt, make_instance, splitmix64_reference, sqrt_psd
from kktprec import spectral
from kktprec.config import BDAL_EXACT, BDAL_LUMPED_EXACT
from kktprec.kkt import build_preconditioner
from kktprec.spectral import (
    AmGmConstants,
    DeskScaleError,
    NotSpdError,
    TheoryViolationError,
    cond_bound,
    preconditioned_kkt_dense,
    sigma_min_bound,
    verify_spectral_bounds,
)


# --- filter constants --------------------------------------------------------

def test_filter_constants_degenerate():
    m = SpectralFilterModel(forward_sv=np.array([1.0, 0.0]),
                            reg_sv=np.array([0.0, 1.0]), alpha=1.0, rho=1.0)
    c = amgm_constants_from_filter(m, c_under=0.0, c_over=0.0)
    assert c.delta == 0.5
    assert c.beta == 1.0


def test_filter_constants_formula():
    m = SpectralFilterModel(forward_sv=np.array([1.0, 1.0]),
                            reg_sv=np.array([1.0, 1.0]), alpha=1e-2, rho=0.1)
    c = amgm_constants_from_filter(m, c_under=1.0, c_over=1.0)
    assert abs(c.delta - 0.25) <= 1e-15
    assert abs(c.beta - 1.0 / math.sqrt(11.0)) <= 1e-15


def test_filter_constants_accept_inverse_law_model():
    m = laplacian_source_model(5, 3, lambda k: float(k), alpha=1e-2)
    lower = m.forward_sv**2 + m.alpha * m.reg_sv**2
    c = amgm_constants_from_filter(m, c_under=float(lower.min()), c_over=1.0)
    assert 0.0 < c.delta <= 0.5
    assert 0.0 < c.beta < 1.0


def test_filter_constants_report_worst_mode():
    m = SpectralFilterModel(forward_sv=np.array([1.0, 0.5]),
                            reg_sv=np.array([1.0, 3.0]), alpha=1.0, rho=1.0)
    with pytest.raises(AssumptionViolationError) as exc:
        amgm_constants_from_filter(m, c_under=0.0, c_over=1.0)
    assert exc.value.mode == 1  # d*r = (1, 1.5): mode 1 overshoots
    assert "mode 1" in str(exc.value)
    with pytest.raises(AssumptionViolationError) as exc:
        amgm_constants_from_filter(m, c_under=2.5, c_over=2.0)
    assert exc.value.mode == 0  # d^2 + alpha r^2 = (2, 9.25): mode 0 lowest


def test_exact_constants_undamped():
    m = SpectralFilterModel(forward_sv=np.zeros(3), reg_sv=np.zeros(3),
                            alpha=1.0, rho=1.0)
    c = amgm_constants_exact(m)
    assert c.delta == 1.0
    assert c.beta == 1.0


def test_exact_constants_half_damping():
    # r_k = 1 with alpha = rho makes every regularization eigenvalue 1/2;
    # d = 0 leaves the data projector at 1
    m = SpectralFilterModel(forward_sv=np.zeros(4), reg_sv=np.ones(4),
                            alpha=0.3, rho=0.3)
    c = amgm_constants_exact(m)
    assert abs(c.delta - 0.75) <= 1e-15
    assert abs(c.beta - 1.0 / math.sqrt(2.0)) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_exact_dominates_filter_bounds(data):
    n = data.draw(st.integers(1, 8), label="n")
    d = sorted(
        data.draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n)),
        reverse=True)
    r = data.draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n))
    alpha = data.draw(st.floats(1e-6, 10.0))
    rho = data.draw(st.floats(1e-3, 10.0))
    m = SpectralFilterModel(forward_sv=np.array(d), reg_sv=np.array(r),
                            alpha=alpha, rho=rho)
    c_under = float(np.min(m.forward_sv**2 + alpha * m.reg_sv**2))
    c_over = float(np.max(m.forward_sv * m.reg_sv))
    closed = amgm_constants_from_filter(m, c_under, c_over)
    exact = amgm_constants_exact(m)
    assert exact.delta >= closed.delta - 1e-12
    assert exact.beta <= closed.beta + 1e-12


def test_small_alpha_beta_bound():
    # with rho = sqrt(alpha) and alpha <= 1 the beta bound loses its alpha
    # dependence: beta <= (1 + c_u)^(-1/2)
    for alpha in (1.0, 1e-2, 1e-6):
        m = laplacian_source_model(50, 20, lambda k: float(k), alpha=alpha)
        c_under = float(np.min(m.forward_sv**2 + alpha * m.reg_sv**2))
        c = amgm_constants_from_filter(m, c_under, 1.0)
        assert c.beta <= 1.0 / math.sqrt(1.0 + c_under) + 1e-15


# --- closed-form bounds ------------------------------------------------------

def test_cond_bound_values():
    assert abs(cond_bound(AmGmConstants(delta=0.5, beta=0.0))
               - (4.0 + 4.0 * math.sqrt(2.0))) <= 1e-12
    assert abs(cond_bound(AmGmConstants(delta=1.0, beta=0.0))
               - (2.0 + 2.0 * math.sqrt(2.0))) <= 1e-12
    delta, beta = 0.25, 1.0 / math.sqrt(11.0)
    expected = (2.0 + 2.0 * 2.0**0.5) / ((1.0 - beta) * delta)
    assert abs(cond_bound(AmGmConstants(delta=delta, beta=beta)) - expected) <= 1e-12


def test_cond_bound_rejects_vacuous():
    with pytest.raises(ValueError):
        cond_bound(AmGmConstants(delta=0.5, beta=1.0))
    with pytest.raises(ValueError):
        cond_bound(AmGmConstants(delta=0.0, beta=0.5))


def psi_matrix(a, b, c):
    off = (1.0 + b / a) / c
    return np.array([[1.0 / a, off], [off, (b / c**2) * (1.0 + b / a)]])


def test_stability_sigma_max_unit_case():
    assert abs(stability_sigma_max(1.0, 1.0, 1.0)
               - (3.0 + math.sqrt(17.0)) / 2.0) <= 1e-14


def test_stability_sigma_max_vs_eigensolve():
    stream = splitmix64_reference(99, 600)
    for i in range(200):
        a = stream[3 * i] / 2.0**64 * 10.0 + 1e-3
        b = stream[3 * i + 1] / 2.0**64 * 10.0 + 1e-3
        c = stream[3 * i + 2] / 2.0**64 * 10.0 + 1e-3
        sigma = np.max(np.abs(np.linalg.eigvalsh(psi_matrix(a, b, c))))
        assert abs(stability_sigma_max(a, b, c) - sigma) <= 1e-10 * sigma


def test_stability_sigma_max_rejects_nonpositive():
    with pytest.raises(ValueError):
        stability_sigma_max(0.0, 1.0, 1.0)


def test_sigma_min_bound_consistent_with_psi():
    # the sigma_min(E) lower bound comes from 1/sigma_max(Psi) evaluated at
    # a = 1 - beta, b = 1, c^2 = 2*delta; the closed form can only be smaller
    rng = np.random.default_rng(23)
    for _ in range(100):
        delta = rng.uniform(0.01, 1.0)
        beta = rng.uniform(0.0, 0.99)
        via_psi = 1.0 / stability_sigma_max(1.0 - beta, 1.0, math.sqrt(2.0 * delta))
        closed = sigma_min_bound(AmGmConstants(delta=delta, beta=beta))
        assert closed <= via_psi + 1e-12


# --- model problem -----------------------------------------------------------

def test_laplacian_model_sequences():
    m = laplacian_source_model(5, 3, lambda k: float(k))
    assert np.allclose(m.forward_sv, [1.0, 0.5, 1.0 / 3.0, 0.0, 0.0])
    assert np.allclose(m.reg_sv, [1.0, 2.0, 3.0, 4.0, 5.0])
    prod = m.forward_sv * m.reg_sv
    assert np.allclose(prod[:3], 1.0, rtol=0, atol=1e-15)
    assert np.all(prod[3:] == 0.0)


def test_laplacian_model_full_observation():
    m = laplacian_source_model(4, 4, lambda k: float(k))
    assert np.all(m.forward_sv > 0.0)


def test_laplacian_model_rejects_bad_law():
    with pytest.raises(ValueError):
        laplacian_source_model(3, 2, lambda k: -float(k))
    with pytest.raises(ValueError):
        laplacian_source_model(3, 2, lambda k: 1.0)  # not increasing
    with pytest.raises(ValueError):
        laplacian_source_model(3, 5, lambda k: float(k))


def test_model_validates_ordering():
    with pytest.raises(ValueError):
        SpectralFilterModel(forward_sv=np.array([1.0, 2.0]),
                            reg_sv=np.array([1.0, 1.0]), alpha=1.0, rho=1.0)


# --- dense operator verification --------------------------------------------

def _exact_bdal_blocks(sys, rho):
    # P1, P2, P3 of the exact kind assembled directly from their definitions
    w = sys.mass.toarray()
    a = sys.forward.toarray()
    p1 = sys.alpha * sys.reg.toarray() + rho * w
    p2 = sys.btb.toarray() + rho * (a.T @ np.linalg.solve(w, a))
    return p1, 0.5 * (p2 + p2.T), w / rho


def _symmetric_root_coupling(sys, rho):
    def inv_sqrt(m):
        vals, vecs = np.linalg.eigh(m)
        return (vecs / np.sqrt(vals)) @ vecs.T

    s1, s2, s3 = (inv_sqrt(p) for p in _exact_bdal_blocks(sys, rho))
    return s3 @ (-sys.mass.toarray()) @ s1, s3 @ sys.forward.toarray() @ s2


def _coupling(sys, p):
    """F and G, sliced out of E's last block row."""
    n = sys.n
    y = preconditioned_kkt_dense(sys, p)[2 * n :, : 2 * n]
    return y[:, :n], y[:, n:]


@pytest.fixture(scope="module")
def kkt_10x7():
    return make_instance(nx=10, ny=7, n_obs=50, alpha=1e-4)


@pytest.mark.parametrize("name", ["kkt_2x2", "kkt_10x7"])
def test_preconditioned_kkt_matches_generalized_eigenproblem(name, request):
    # K x = lambda P x shares its spectrum with the congruence L^-1 K L^-T
    sys = request.getfixturevalue(name)
    p = build_preconditioner(sys, BDAL_EXACT)
    got = np.linalg.eigvalsh(preconditioned_kkt_dense(sys, p))
    want = sla.eigh(
        assembled_kkt(sys).toarray(), sla.block_diag(*_exact_bdal_blocks(sys, p.rho)), eigvals_only=True
    )
    assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))


@pytest.mark.parametrize("name", ["kkt_2x2", "kkt_10x7"])
def test_coupling_blocks_match_symmetric_roots(name, request):
    sys = request.getfixturevalue(name)
    p = build_preconditioner(sys, BDAL_EXACT)
    for got, want in zip(_coupling(sys, p), _symmetric_root_coupling(sys, p.rho)):
        sv_got = np.linalg.svd(got, compute_uv=False)
        sv_want = np.linalg.svd(want, compute_uv=False)
        assert np.max(np.abs(sv_got - sv_want)) <= 1e-10 * sv_want[0]


def test_preconditioned_kkt_symmetric(kkt_2x2):
    p = build_preconditioner(kkt_2x2, BDAL_EXACT)
    e = preconditioned_kkt_dense(kkt_2x2, p)
    assert np.linalg.norm(e - e.T) <= 1e-10 * np.linalg.norm(e)


def test_preconditioned_kkt_requires_exact_kind(kkt_2x2):
    p = build_preconditioner(kkt_2x2, BDAL_LUMPED_EXACT)
    with pytest.raises(ValueError):
        preconditioned_kkt_dense(kkt_2x2, p)


def test_preconditioned_dense_names_non_spd_block(kkt_2x2):
    # P1 and P3 stay definite; P2 = BtB + Ct C loses definiteness when the
    # data block is made strongly negative, and the error says which block
    p = build_preconditioner(kkt_2x2, BDAL_EXACT)
    ops = dataclasses.replace(kkt_2x2.ops)
    vars(ops)["btb"] = sp.csr_matrix(-1e12 * np.eye(kkt_2x2.n))  # in place of the cached B^T B
    bad = dataclasses.replace(kkt_2x2, ops=ops)
    with pytest.raises(NotSpdError, match="block P2 "):
        preconditioned_kkt_dense(bad, p)


def test_desk_scale_refusal(monkeypatch):
    # 41 x 29 vertices give dim 3567 > 3000; the size is checked before any
    # preconditioner block is densified or factored
    sys = make_instance(nx=40, ny=28, n_obs=50, alpha=1e-2)
    p = build_preconditioner(sys, BDAL_EXACT)
    monkeypatch.setattr(spectral, "_cholesky", lambda *args: pytest.fail("dense work began"))
    with pytest.raises(DeskScaleError, match="dim 3567 > 3000"):
        verify_spectral_bounds(sys, p)


@pytest.mark.parametrize("name", ["kkt_2x2", "kkt_10x7"])
def test_exact_kind_block_structure(name, request):
    # With P1 = alpha R*R + rho W and P2 = BtB + C^T C, the diagonal blocks
    # of E are I - F^T F and I - G^T G, and E's other blocks vanish. So
    # Y Y^T = F F^T + G G^T and X + Y^T Y = [[I, F^T G], [G^T F, I]]: checks
    # 4 and 5 of the verifier hold with equality.
    sys = request.getfixturevalue(name)
    n = sys.n
    e = preconditioned_kkt_dense(sys, build_preconditioner(sys, BDAL_EXACT))
    q, u, eta = slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n)
    f, g = e[eta, q], e[eta, u]
    assert np.all(e[q, u] == 0.0) and np.all(e[u, q] == 0.0)
    assert np.all(e[eta, eta] == 0.0)
    assert np.max(np.abs(e[q, q] - (np.eye(n) - f.T @ f))) <= 1e-12
    assert np.max(np.abs(e[u, u] - (np.eye(n) - g.T @ g))) <= 1e-12


def test_verify_bounds_small_instance():
    sys = make_instance(nx=2, ny=2, n_obs=5, alpha=1e-2)
    p = build_preconditioner(sys, BDAL_EXACT)
    report = verify_spectral_bounds(sys, p)
    assert report.sigma_max_e <= 2.0 + 1e-8
    assert report.sigma_min_e >= report.bound_sigma_min - 1e-8
    assert report.cond_e <= report.bound_cond + 1e-8 * report.bound_cond
    assert abs(report.cond_e - report.sigma_max_e / report.sigma_min_e) <= 1e-12
    assert 0.0 < report.delta <= 1.0
    assert 0.0 <= report.beta < 1.0


def test_damped_projector_eigenvalues_in_unit_interval(kkt_2x2):
    p = build_preconditioner(kkt_2x2, BDAL_EXACT)
    f, g = _coupling(kkt_2x2, p)
    for q in (f @ f.T, g @ g.T):
        eigs = np.linalg.eigvalsh(q)
        assert eigs.min() >= -1e-10
        assert eigs.max() <= 1.0 + 1e-10


def test_coercivity_eigenstructure(kkt_2x2):
    # eigenvalues of [[I, F^T G], [G^T F, I]] sit at 1 +- singular values of
    # F^T G, so |lambda - 1|^2 lies in the spectrum of G^T F F^T G
    p = build_preconditioner(kkt_2x2, BDAL_EXACT)
    f, g = _coupling(kkt_2x2, p)
    n = f.shape[1]
    m = f.T @ g
    coercivity = np.eye(2 * n)
    coercivity[:n, n:] = m
    coercivity[n:, :n] = m.T
    lam = np.linalg.eigvalsh(coercivity)
    shifted_sq = np.sort((lam - 1.0) ** 2)
    target = np.sort(np.linalg.eigvalsh(g.T @ f @ f.T @ g))
    for value in shifted_sq:
        assert np.min(np.abs(target - value)) <= 1e-10 * max(1.0, value)


# --- dense oracles for the verifier's shortcuts -----------------------------

@pytest.fixture(
    scope="module",
    params=[(10, 7, 1e-2), (10, 7, 1e-6), (20, 14, 1e-2), (20, 14, 1e-6)],
    ids=lambda p: f"{p[0]}x{p[1]}-alpha{p[2]:g}",
)
def verified(request):
    nx, ny, alpha = request.param
    sys = make_instance(nx=nx, ny=ny, n_obs=200, alpha=alpha)
    p = build_preconditioner(sys, BDAL_EXACT)
    return sys, p, verify_spectral_bounds(sys, p)


def _e_all_factors_first(sys, p):
    # E as formed while every dense factor stayed alive to the end: P1's,
    # P3's and P2's factors and C first, then each block in turn
    def solve(l, b):
        return sla.solve_triangular(l, b, lower=True, check_finite=False)

    def congruent(l, block):
        x = solve(l, solve(l, block.toarray()).T).T
        return 0.5 * (x + x.T)

    n, rho = sys.n, p.rho
    w = sys.mass.toarray()
    l1 = sla.cholesky(sys.alpha * sys.reg.toarray() + rho * w, lower=True, check_finite=False)
    l3 = sla.cholesky((1.0 / rho) * w, lower=True, check_finite=False)
    c = solve(l3, sys.forward.toarray())
    l2 = sla.cholesky(sys.btb.toarray() + c.T @ c, lower=True, check_finite=False)
    q, u, eta = slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n)
    e = np.zeros((3 * n, 3 * n))
    e[q, q] = congruent(l1, sys.alpha * sys.reg)
    e[u, u] = congruent(l2, sys.btb)
    e[eta, q] = solve(l1, solve(l3, (-sys.mass).toarray()).T).T
    e[eta, u] = solve(l2, c.T).T
    e[: 2 * n, eta] = e[eta, : 2 * n].T
    return e


def test_preconditioned_kkt_equals_all_factors_first_oracle(verified):
    # freeing each factor after its last block changes no arithmetic
    sys, p, _ = verified
    assert np.array_equal(preconditioned_kkt_dense(sys, p), _e_all_factors_first(sys, p))


@pytest.mark.parametrize("block", ["p1", "p3"])
def test_preconditioned_kkt_reads_the_preconditioners_blocks(kkt_4x4, block):
    # E is formed from P's own outer blocks, not rebuilt from the system
    p = build_preconditioner(kkt_4x4, BDAL_EXACT)
    doubled = copy.copy(p)
    setattr(doubled, block, 2 * getattr(p, block))  # p3 is a cached property
    e = preconditioned_kkt_dense(kkt_4x4, p)
    assert not np.allclose(preconditioned_kkt_dense(kkt_4x4, doubled), e)


def test_coercivity_matches_dense_eigensolve(verified):
    # check 5 reads 1 - sigma_max(F^T G) from an n x n SVD; the oracle is the
    # lowest eigenvalue of the 2n x 2n matrix [[I, F^T G], [G^T F, I]]
    sys, p, report = verified
    f, g = _coupling(sys, p)
    n = sys.n
    coercivity = np.eye(2 * n)
    coercivity[:n, n:] = f.T @ g
    coercivity[n:, :n] = (f.T @ g).T
    assert abs(report.lambda_min_coercivity - np.linalg.eigvalsh(coercivity)[0]) <= 1e-12


def test_beta_matches_square_root_route(verified):
    # beta^2 = lambda_max(Q_reg^1/2 Q_data Q_reg^1/2), through a full
    # eigendecomposition of Q_reg = F F^T
    sys, p, report = verified
    f, g = _coupling(sys, p)
    sq = sqrt_psd(f @ f.T)
    want = math.sqrt(max(np.linalg.eigvalsh(sq @ (g @ g.T) @ sq)[-1], 0.0))
    assert abs(report.beta - want) <= 1e-12 * want


def test_extreme_singular_values_match_eigvalsh(verified):
    sys, p, report = verified
    sigma = np.abs(np.linalg.eigvalsh(preconditioned_kkt_dense(sys, p)))
    assert abs(report.sigma_min_e - sigma.min()) <= 1e-13 * sigma.min()
    assert abs(report.sigma_max_e - sigma.max()) <= 1e-13 * sigma.max()


def test_coercivity_violation_raises(kkt_2x2, monkeypatch):
    p = build_preconditioner(kkt_2x2, BDAL_EXACT)
    beta = verify_spectral_bounds(kkt_2x2, p).beta
    monkeypatch.setattr(spectral, "svdvals", lambda m: np.array([beta + 1e-6]))
    with pytest.raises(TheoryViolationError, match=r"^lambda_min\(X \+ YtY\)") as exc:
        verify_spectral_bounds(kkt_2x2, p)
    assert exc.value.report.lambda_min_coercivity == 1.0 - (beta + 1e-6)


def test_inertia_violation_raises_and_sigma_min_is_still_exact():
    # At alpha 1e-24 rounding gives E 37 negative eigenvalues, not n = 35:
    # lambda_35 and lambda_36 are both negative, and the eigenvalue nearest
    # 0 is lambda_38 = 4.9e-11, far below min(|lambda_35|, |lambda_36|) =
    # 4.8e-9.
    sys = make_instance(nx=6, ny=4, n_obs=20, alpha=1e-24)
    p = build_preconditioner(sys, BDAL_EXACT)
    lam = np.linalg.eigvalsh(preconditioned_kkt_dense(sys, p))
    n = sys.n
    assert np.count_nonzero(lam < 0.0) == n + 2
    with pytest.raises(TheoryViolationError, match=r"^inertia\(E\) = \(70, 35, 0\): ") as exc:
        verify_spectral_bounds(sys, p)
    want = np.abs(lam).min()
    assert min(abs(lam[n - 1]), abs(lam[n])) - want > 1e-9
    assert abs(exc.value.report.sigma_min_e - want) <= 1e-13 * np.abs(lam).max()


# --- LAPACK calls against scipy.linalg --------------------------------------

def _wrapper_kernels(monkeypatch):
    """Put scipy.linalg's cholesky, solve_triangular and svdvals, called as
    the verifier called them before it went to LAPACK directly, in place of
    its kernels."""
    def cholesky(m, name):
        return sla.cholesky(m, lower=True, overwrite_a=True, check_finite=False)

    def solve_lower(l, b):
        return sla.solve_triangular(l, b, lower=True, overwrite_b=True, check_finite=False)

    monkeypatch.setattr(spectral, "_cholesky", cholesky)
    monkeypatch.setattr(spectral, "_solve_lower", solve_lower)
    monkeypatch.setattr(spectral, "svdvals", lambda a: sla.svdvals(a, check_finite=False))


@pytest.mark.parametrize("nx, ny", [(6, 4), (10, 7)])
@pytest.mark.parametrize("alpha", [1e-2, 1e-6])
def test_lapack_kernels_reproduce_scipy_wrappers(nx, ny, alpha, monkeypatch):
    # Every field is equal, not close: a wrong lower flag in potrf or trtrs
    # moves the report.
    sys = make_instance(nx=nx, ny=ny, n_obs=50, alpha=alpha)
    p = build_preconditioner(sys, BDAL_EXACT)
    report = verify_spectral_bounds(sys, p)
    _wrapper_kernels(monkeypatch)
    assert report == verify_spectral_bounds(sys, p)


@pytest.mark.parametrize("kind", ["definite", "indefinite", "E"])
def test_bisection_matches_dense_eigensolve(kind):
    # The eigenvalues the verifier selects, by index and by value, against
    # scipy.linalg.eigh on the whole matrix, to 1e-13 of max |lambda|. The
    # matrix is passed as C-ordered arrays are: its transpose is reduced.
    a = np.random.default_rng(11).standard_normal((160, 160))
    if kind == "definite":
        a = a @ a.T + 1e-3 * np.eye(160)
    elif kind == "indefinite":
        a = a + a.T
    else:
        sys = make_instance(nx=10, ny=7, n_obs=50, alpha=1e-6)
        a = preconditioned_kkt_dense(sys, build_preconditioner(sys, BDAL_EXACT))
    want = sla.eigh(a, eigvals_only=True)
    tol = 1e-13 * np.abs(want).max()
    size = a.shape[0]
    t = spectral._tridiagonal(a.copy())
    for lo, hi in ((1, 1), (size // 3, size // 3 + 1), (size, size), (1, size)):
        got = spectral._bisect(t, lo, hi)
        assert got.shape == (hi - lo + 1,)
        assert np.all(np.abs(got - want[lo - 1 : hi]) <= tol)
    # (lo, hi] between the widest gaps of each half, so that no eigenvalue
    # lies within rounding of an end
    gaps = np.diff(want)
    k, m = np.argmax(gaps[: size // 2]), size // 2 + np.argmax(gaps[size // 2 :])
    lo, hi = 0.5 * (want[k] + want[k + 1]), 0.5 * (want[m] + want[m + 1])
    got = spectral._bisect(t, lo, hi, by_value=True)
    assert got.shape == (m - k,)
    assert np.all(np.abs(got - want[k + 1 : m + 1]) <= tol)
    assert abs(spectral._eigenvalue(a.copy(), size // 2) - want[size // 2 - 1]) <= tol


def test_lapack_kernels_match_wrappers_on_their_other_paths(monkeypatch):
    # Paths the theory instances leave untaken: a C-ordered factor, which
    # trtrs solves as the transposed upper factor; and an SVD large enough
    # (dgebrd blocks above 128) that gesdd's lwork changes the bits.
    rng = np.random.default_rng(5)
    a = rng.standard_normal((160, 160))
    l = np.ascontiguousarray(sla.cholesky(a @ a.T + 160.0 * np.eye(160), lower=True))
    assert not l.flags.f_contiguous
    b = rng.standard_normal((160, 7))
    assert np.array_equal(spectral._solve_lower(l, b.copy()), sla.solve_triangular(l, b, lower=True))
    assert np.array_equal(spectral.svdvals(a), sla.svdvals(a))
    with pytest.raises(np.linalg.LinAlgError, match="^LAPACK trtrs failed with info = 2$"):
        spectral._solve_lower(np.asfortranarray(np.diag([1.0, 0.0])), np.ones((2, 1)))

    # Same routines as the wrappers, with gesdd's ILP64 preference. This
    # scipy build may have no ILP64 LAPACK, where "preferred" and False
    # pick one routine, so the request itself is checked.
    requests = []
    real = spectral.get_lapack_funcs

    def recording(names, arrays=(), dtype=None, ilp64=False):
        requests.append((tuple(names), ilp64))
        return real(names, arrays, dtype, ilp64)

    monkeypatch.setattr(spectral, "get_lapack_funcs", recording)
    spectral._cholesky(a @ a.T + 160.0 * np.eye(160), "P")
    spectral._solve_lower(l, b.copy())
    spectral._eigenvalue(a + a.T, 1)
    spectral.svdvals(a)
    assert requests == [
        (("potrf",), False),
        (("trtrs",), False),
        (("sytrd", "sytrd_lwork"), False),
        (("stebz",), False),
        (("gesdd", "gesdd_lwork"), "preferred"),
    ]
