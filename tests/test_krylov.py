import numpy as np
import pytest

from helpers import probe_columns, random_spd
from kktprec.kkt import reduced_hessian, regularization_prec_operator
from kktprec.krylov import (
    IndefiniteOperatorError,
    LinearOperator,
    PreconditionerNotSpdError,
    minres,
    pcg,
)


def identity(x):
    return x


def op_from(m):
    m = np.asarray(m, dtype=float)
    return lambda x: m @ x


def test_minres_identity_one_iteration():
    b = np.array([2.0, -1.0, 0.5])
    report = minres(identity, identity, b)
    assert report.converged
    assert report.iterations == 1
    assert np.allclose(report.solution, b, rtol=0, atol=1e-13)


def test_minres_three_eigenvalues_three_iterations():
    b = np.ones(3)
    report = minres(op_from(np.diag([1.0, 2.0, 3.0])), identity, b, tol=1e-12)
    assert report.converged
    assert report.iterations <= 3
    assert np.allclose(report.solution, [1.0, 0.5, 1.0 / 3.0], atol=1e-10)


def test_minres_saddle_matches_direct_solve():
    m = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
    b = np.ones(3)
    report = minres(op_from(m), identity, b, tol=1e-10)
    direct = np.linalg.solve(m, b)
    assert report.converged
    assert np.linalg.norm(report.solution - direct) <= 1e-8 * np.linalg.norm(direct)


def test_minres_residual_history_monotone():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((12, 12))
    m = 0.5 * (a + a.T)  # indefinite
    b = rng.standard_normal(12)
    report = minres(op_from(m), identity, b, tol=1e-12, maxit=50)
    hist = report.residual_history
    assert len(hist) == report.iterations + 1
    assert np.all(np.diff(hist) <= 1e-12 * hist[0])


def test_minres_agrees_with_pcg_on_spd():
    rng = np.random.default_rng(9)
    m = random_spd(10, rng)
    b = rng.standard_normal(10)
    tol = 1e-10
    xm = minres(op_from(m), identity, b, tol=tol, maxit=200).solution
    xc = pcg(op_from(m), identity, b, tol=tol, maxit=200).solution
    assert np.linalg.norm(xm - xc) <= 10 * tol * np.linalg.norm(xc)


def test_minres_exact_schur_preconditioner_clusters():
    # Saddle system with the ideal block preconditioner: the preconditioned
    # operator has at most three distinct eigenvalues, so MINRES finishes
    # in at most three iterations.
    a = np.diag([1.0, 2.0, 3.0])
    bmat = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    k = np.zeros((5, 5))
    k[:3, :3] = a
    k[:3, 3:] = bmat.T
    k[3:, :3] = bmat
    schur = bmat @ np.linalg.solve(a, bmat.T)
    p_inv = np.zeros((5, 5))
    p_inv[:3, :3] = np.linalg.inv(a)
    p_inv[3:, 3:] = np.linalg.inv(schur)
    b = np.array([1.0, 2.0, -1.0, 0.5, 1.5])
    report = minres(op_from(k), op_from(p_inv), b, tol=1e-10, maxit=10)
    assert report.converged
    assert report.iterations <= 3
    assert np.linalg.norm(k @ report.solution - b) <= 1e-8 * np.linalg.norm(b)


SOLVERS = pytest.mark.parametrize("solve", [minres, pcg], ids=["minres", "pcg"])


@SOLVERS
def test_error_history_matches_recomputation(solve):
    # The per-iterate contract both solvers share: one history entry and
    # one callback per iterate, k = 0 first, and each recorded error is
    # the one of the iterate the callback saw.
    rng = np.random.default_rng(17)
    m = random_spd(8, rng)
    b = rng.standard_normal(8)
    ref = np.linalg.solve(m, b)
    iterates = []
    report = solve(
        op_from(m), identity, b, tol=1e-12, maxit=40, reference=ref,
        callback=lambda k, x: iterates.append((k, x.copy())),
    )
    assert report.error_history is not None
    assert len(report.residual_history) == len(report.error_history) == report.iterations + 1
    assert [k for k, _ in iterates] == list(range(report.iterations + 1))
    for k, x in iterates:
        expected = np.linalg.norm(ref - x) / np.linalg.norm(ref)
        assert abs(report.error_history[k] - expected) <= 1e-14


@SOLVERS
def test_zero_rhs_returns_before_any_operator_apply(solve):
    def never(x):
        raise AssertionError("operator applied for a zero right-hand side")

    seen = []
    report = solve(never, identity, np.zeros(4), reference=np.ones(4),
                   callback=lambda k, x: seen.append(k))
    assert report.iterations == 0
    assert report.converged
    assert list(report.residual_history) == [0.0]
    assert list(report.error_history) == [1.0]
    assert seen == [0]
    assert np.array_equal(report.solution, np.zeros(4))


def test_minres_rejects_zero_reference():
    with pytest.raises(ValueError):
        minres(identity, identity,
               np.ones(2), reference=np.zeros(2))


@SOLVERS
def test_rejects_indefinite_preconditioner(solve):
    neg = op_from(-np.eye(3))
    with pytest.raises(PreconditionerNotSpdError):
        solve(identity, neg, np.ones(3))


def test_pcg_diagonal():
    report = pcg(op_from(np.diag([1.0, 2.0, 3.0])), identity,
                 np.ones(3), tol=1e-12)
    assert report.converged
    assert report.iterations <= 3
    assert np.allclose(report.solution, [1.0, 0.5, 1.0 / 3.0], atol=1e-12)


def test_pcg_identity_one_iteration():
    b = np.array([1.0, 2.0])
    report = pcg(identity, identity, b)
    assert report.converged
    assert report.iterations == 1
    assert np.allclose(report.solution, b, rtol=0, atol=1e-14)


def test_pcg_detects_indefinite_operator():
    with pytest.raises(IndefiniteOperatorError):
        pcg(op_from(np.diag([1.0, -1.0])), identity,
            np.ones(2), tol=1e-12, maxit=10)


def test_pcg_reduced_hessian_vs_dense(kkt_2x2):
    h = reduced_hessian(kkt_2x2)
    dense_h = probe_columns(h.apply, h.n)
    rhs = h.rhs(_observed_data(kkt_2x2), kkt_2x2.ops.observation)
    x_star = np.linalg.solve(dense_h, rhs)
    report = pcg(h.as_operator(), regularization_prec_operator(h), rhs,
                 tol=1e-10, maxit=200)
    assert report.converged
    assert np.linalg.norm(report.solution - x_star) <= 1e-8 * np.linalg.norm(x_star)


def _observed_data(sys):
    # recover y from the assembled rhs: block 2 holds B^T y, and for the
    # tiny instance B^T has full column rank
    bt = sys.ops.observation.toarray().T
    return np.linalg.lstsq(bt, sys.rhs[sys.n:2 * sys.n], rcond=None)[0]


def test_operator_shape_validation():
    op = LinearOperator(3, 3, identity)
    with pytest.raises(ValueError):
        op(np.ones(4))
    with pytest.raises(ValueError):
        LinearOperator(3, 2, identity)(np.ones(3))
    b = np.array([1.0, 2.0, 3.0])
    assert np.allclose(minres(op, op, b).solution, b, rtol=0, atol=1e-13)


@SOLVERS
def test_target_stops_at_first_iterate_below(solve):
    rng = np.random.default_rng(23)
    m = random_spd(12, rng)
    b = rng.standard_normal(12)
    ref = np.linalg.solve(m, b)
    full = solve(op_from(m), identity, b, tol=1e-14, maxit=60, reference=ref)
    target = 1e-3
    k = int(np.nonzero(full.error_history < target)[0][0])
    assert 0 < k < full.iterations
    iterates = []
    cut = solve(op_from(m), identity, b, tol=1e-14, maxit=60, reference=ref, target=target,
                callback=lambda j, x: iterates.append(x.copy()))
    assert cut.iterations == k
    assert np.array_equal(cut.error_history, full.error_history[: k + 1])
    assert np.array_equal(cut.residual_history, full.residual_history[: k + 1])
    assert np.array_equal(cut.solution, iterates[-1])
    assert len(iterates) == k + 1
    assert not cut.converged  # tol was not met on iterate k
    assert not cut.breakdown


@SOLVERS
def test_target_met_with_tol_is_converged(solve):
    b = np.array([2.0, -1.0, 0.5])
    report = solve(identity, identity, b, reference=b, target=0.5)
    assert report.iterations == 1
    assert report.converged


@SOLVERS
def test_target_above_initial_error_applies_no_operator(solve):
    def never(x):
        raise AssertionError("operator applied although x0 is below the target")

    report = solve(never, identity, np.ones(4), reference=np.ones(4), target=2.0)
    assert report.iterations == 0
    assert not report.converged
    assert list(report.error_history) == [1.0]


@SOLVERS
def test_target_needs_reference(solve):
    def never(x):
        raise AssertionError("operator applied before the arguments were checked")

    with pytest.raises(ValueError, match="reference"):
        solve(never, never, np.ones(3), target=1e-3)
