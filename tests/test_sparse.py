import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import make_instance
from kktprec import sparse
from kktprec.fem import _from_coo
from kktprec.kkt import NonpositiveDiagonalError, _triple_product
from kktprec.sparse import RefinementError, SingularMatrixError, SparseLU


def test_from_coo_sums_duplicates():
    m = _from_coo((2, 2), [0, 0, 1], [0, 0, 1], [1.0, 2.0, 5.0])
    assert m.nnz == 2
    assert np.array_equal(m.toarray(), np.array([[3.0, 0.0], [0.0, 5.0]]))


def test_from_coo_rejects_out_of_range():
    with pytest.raises(ValueError):
        _from_coo((2, 2), [2], [0], [1.0])
    with pytest.raises(ValueError):
        _from_coo((2, 2), [0], [-1], [1.0])


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_csr_invariants_random_coo(data):
    nrows = data.draw(st.integers(1, 8), label="nrows")
    ncols = data.draw(st.integers(1, 8), label="ncols")
    nnz = data.draw(st.integers(0, 20), label="nnz")
    rows = data.draw(st.lists(st.integers(0, nrows - 1), min_size=nnz, max_size=nnz))
    cols = data.draw(st.lists(st.integers(0, ncols - 1), min_size=nnz, max_size=nnz))
    vals = data.draw(st.lists(
        st.floats(-10, 10, allow_nan=False, allow_infinity=False),
        min_size=nnz, max_size=nnz))
    m = _from_coo((nrows, ncols), rows, cols, vals)
    assert sp.isspmatrix_csr(m) and m.has_canonical_format and m.dtype == np.float64
    expected = np.zeros((nrows, ncols))
    for r, c, v in zip(rows, cols, vals):
        expected[r, c] += v
    assert np.allclose(m.toarray(), expected, rtol=0, atol=1e-12)


def test_triple_diag_identity_ones():
    out = _triple_product(sp.identity(3, format="csr"), np.ones(3))
    assert np.array_equal(out.toarray(), np.eye(3))


def test_triple_diag_identity_weights():
    out = _triple_product(sp.identity(2, format="csr"), np.array([2.0, 3.0]))
    assert np.array_equal(out.toarray(), np.diag([2.0, 3.0]))


def test_triple_diag_matches_dense():
    rng = np.random.default_rng(3)
    dense = rng.standard_normal((6, 6))
    dense[np.abs(dense) < 0.6] = 0.0
    d = rng.uniform(0.5, 2.0, size=6)
    out = _triple_product(sp.csr_matrix(dense), d)
    assert out.has_canonical_format
    od = out.toarray()
    assert np.max(np.abs(od - dense.T @ np.diag(d) @ dense)) <= 1e-13
    # exact symmetry by construction
    assert np.array_equal(od, od.T)


def test_triple_diag_rejects_nonpositive_diagonal():
    with pytest.raises(NonpositiveDiagonalError):
        _triple_product(sp.identity(2, format="csr"), np.array([1.0, 0.0]))


@settings(max_examples=15, deadline=None)
@given(
    nx=st.integers(1, 9),
    ny=st.integers(1, 9),
    n_obs=st.integers(1, 30),
    alpha=st.sampled_from([1e-2, 1e-6]),
)
def test_assembled_operators_are_canonical_csr(nx, ny, n_obs, alpha):
    sys = make_instance(nx=nx, ny=ny, n_obs=n_obs, alpha=alpha)
    ops = sys.ops
    matrices = {
        "ops.mass": ops.mass,
        "ops.forward": ops.forward,
        "ops.reg": ops.reg,
        "ops.observation": ops.observation,
        "sys.reg": sys.reg,
        "sys.btb": sys.btb,
        "sys.forward": sys.forward,
        "sys.mass": sys.mass,
    }
    for name, m in matrices.items():
        assert sp.isspmatrix_csr(m), name
        assert m.has_canonical_format, name
        assert m.dtype == np.float64, name
    assert ops.observation.shape == (n_obs, sys.n)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.integers(0, 300), elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_vector_norm_is_sqrt_of_dot(v):
    # SparseLU's refinement and the Krylov error history take every 2-norm
    # this way and rely on it giving np.linalg.norm's bits; both overflow
    # to inf alike.
    with np.errstate(over="ignore"):
        assert math.sqrt(v @ v) == float(np.linalg.norm(v))


def lu_of(m, name, single):
    """SparseLU of the float64 matrix m; with single, the float32 LU of m
    refined in float64 against m, as the reference KKT solve is against K."""
    if not single:
        return SparseLU(m, name)
    return SparseLU(m.astype(np.float32), name, against=(m.dot, float(spla.norm(m))))


def test_sparse_lu_solves_and_refines():
    rng = np.random.default_rng(31)
    dense = rng.standard_normal((12, 12)) + 12.0 * np.eye(12)
    dense[np.abs(dense) < 0.8] = 0.0
    m = sp.csc_matrix(dense)
    b = rng.standard_normal(12)
    for single in (False, True):
        solver = lu_of(m, "test", single)
        x = solver(b)
        assert np.linalg.norm(dense @ x - b) <= 1e-12 * np.linalg.norm(b)
        assert np.all(solver(np.zeros(12)) == 0.0)


def test_sparse_lu_ordered_keeps_the_given_order(factors):
    rng = np.random.default_rng(34)
    dense = np.diag(np.full(10, 4.0)) + np.diag(np.full(9, -1.0), 1) + np.diag(np.full(9, -1.0), -1)
    dense[0, 9] = dense[9, 0] = -1.0
    b = rng.standard_normal(10)
    x = SparseLU(sp.csc_matrix(dense), "test")(b)
    norm = np.linalg.norm
    assert norm(dense @ x - b) <= 1e-12 * (norm(dense) * norm(x) + norm(b))
    assert np.array_equal(factors[-1].perm_c, np.arange(10))
    assert np.array_equal(factors[-1].perm_r, np.arange(10))  # diagonal pivots


def test_sparse_lu_singular_names_matrix():
    m = sp.diags([1.0, 0.0, 2.0], format="csr")
    for single in (False, True):
        with pytest.raises(SingularMatrixError, match="block 2 matrix"):
            lu_of(m, "block 2", single)


def test_sparse_lu_stalled_refinement_reports_error(monkeypatch):
    rng = np.random.default_rng(32)
    m = sp.csc_matrix(rng.standard_normal((8, 8)) + 8.0 * np.eye(8))
    monkeypatch.setattr(sparse, "EXACT_SOLVE_TOL", 1e-30)
    for single in (False, True):
        solver = lu_of(m, "forward", single)
        with pytest.raises(RefinementError, match=r"forward solve: refinement stalled at backward error \d"):
            solver(rng.standard_normal(8))


@pytest.mark.parametrize("single", [False, True])
@pytest.mark.parametrize("theta", [0.4, 0.6])
def test_sparse_lu_corrects_while_a_correction_halves_the_backward_error(single, theta):
    # Each LU solve returns (1 - theta) times its true value, so each
    # correction leaves theta of the residual. With r along m's dominant
    # entry, ||m||_F ||x|| is close to ||r||, and the backward error falls
    # by about theta per correction: by at most 0.4 for theta = 0.4, which
    # reaches the contract in about 30 corrections, and by 0.51 on the
    # first correction for theta = 0.6, which does not halve it.
    m = sp.diags([1000.0, 1.0, 1.0], format="csr")
    b = np.array([1.0, 0.0, 0.0])
    solver, calls = lu_of(m, "probe", single), []
    true_solve = solver._solve

    def damped_solve(r):
        calls.append(r)
        return (1.0 - theta) * true_solve(r)

    solver._solve = damped_solve
    if theta > 0.5:
        with pytest.raises(RefinementError, match="probe solve: refinement stalled"):
            solver(b)
        assert len(calls) == 2  # the LU solve and its first correction
    else:
        x = solver(b)
        assert len(calls) > 6  # more than 5 corrections
        norm = np.linalg.norm
        assert norm(m @ x - b) <= 1e-12 * (spla.norm(m) * norm(x) + norm(b))


def test_sparse_lu_refinement_catches_nonsymmetric_csr():
    # A CSR matrix is factored through its transpose view, so a
    # nonsymmetric one factors the wrong matrix; refinement against m
    # then stalls here instead of returning a wrong solution.
    m = sp.csr_matrix([[1.0, 4.0], [0.0, 1.0]])
    for single in (False, True):
        solver = lu_of(m, "probe", single)
        with pytest.raises(RefinementError, match="probe solve: refinement stalled"):
            solver(np.array([1.0, 2.0]))


@pytest.mark.parametrize("single", [False, True])
def test_sparse_lu_non_finite_solve_raises(single):
    # A NaN backward error fails the contract: it is not <= the tolerance.
    m = sp.csr_matrix([[4.0, 1.0], [1.0, 3.0]])
    solver = lu_of(m, "probe", single)
    with np.errstate(invalid="ignore"):
        for r in ([np.nan, 1.0], [np.inf, 1.0]):
            with pytest.raises(RefinementError, match="backward error nan"):
                solver(np.array(r))
    if single:
        # entries past float32's range: the float32 copy holds inf, its LU
        # solves to zero, and refinement against m reports that
        with np.errstate(over="ignore"):
            big = lu_of(sp.csr_matrix([[1.0, 1e39], [1e39, 1.0]]), "big", single)
        with pytest.raises(RefinementError, match="big solve: refinement stalled"):
            big(np.array([1.0, 2.0]))


TINY_PIVOT = {
    "2x2": [[1e-18, 1.0], [1.0, 1.0]],
    # Vertex 0 has the least degree, so the minimum degree order of the
    # symmetric mode eliminates it first and pivots on the 1e-18.
    "arrow": [[1e-18, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0], [0.0, 1.0, 4.0, 1.0], [0.0, 1.0, 1.0, 4.0]],
}


@pytest.mark.parametrize("case", sorted(TINY_PIVOT))
def test_sparse_lu_tiny_pivot_refines_or_raises(case):
    dense = np.array(TINY_PIVOT[case])
    rng = np.random.default_rng(33)
    for single in (False, True):
        solver = lu_of(sp.csr_matrix(dense), "tiny", single)
        for _ in range(5):
            b = rng.standard_normal(dense.shape[0])
            try:
                x = solver(b)
            except RefinementError:
                continue
            r = np.linalg.norm(dense @ x - b)
            assert r <= 1e-12 * (np.linalg.norm(dense) * np.linalg.norm(x) + np.linalg.norm(b))


def test_forward_lu_meets_backward_error_where_relative_residual_cannot():
    # cond(m) near 1e14 and b along m's smallest eigenvector: the computed x
    # has a relative residual near eps * cond(m), far above 1e-12, yet a
    # backward error near eps. The forward LU must hold the one contract.
    rng = np.random.default_rng(35)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    dense = q @ np.diag(np.logspace(0.0, -14.0, 8)) @ q.T
    dense = (dense + dense.T) * 0.5
    eigenvalues, eigenvectors = np.linalg.eigh(dense)
    assert eigenvalues[-1] / eigenvalues[0] >= 1e13
    b = eigenvectors[:, 0]
    x = SparseLU(sp.csr_matrix(dense), "forward")(b)
    norm = np.linalg.norm
    r = norm(dense @ x - b)
    assert r > 1e-12 * norm(b)
    assert r <= 1e-12 * (norm(dense) * norm(x) + norm(b))
