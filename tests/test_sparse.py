import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kktprec import SparseMatrix, sparse_add_scaled, sparse_transpose, sparse_triple_diag, spmv
from kktprec.dense import RefinementError, SingularMatrixError
from kktprec.sparse import DimensionMismatchError, NonpositiveDiagonalError, SparseLU


def test_spmv_identity():
    m = SparseMatrix.identity(3)
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(spmv(m, x), x)


def test_spmv_zero_matrix():
    m = SparseMatrix.from_coo(3, 3, [], [], [])
    assert np.array_equal(spmv(m, np.array([4.0, -1.0, 7.0])), np.zeros(3))


def test_spmv_hand_product():
    # [[2,1],[0,3]] @ (1,1) = (3,3)
    m = SparseMatrix.from_coo(2, 2, [0, 0, 1], [0, 1, 1], [2.0, 1.0, 3.0])
    assert np.array_equal(spmv(m, np.array([1.0, 1.0])), np.array([3.0, 3.0]))


def test_spmv_dimension_mismatch():
    m = SparseMatrix.identity(3)
    with pytest.raises(DimensionMismatchError):
        spmv(m, np.ones(4))


def test_spmv_matches_dense_random():
    rng = np.random.default_rng(7)
    dense = rng.standard_normal((20, 20))
    dense[np.abs(dense) < 0.8] = 0.0
    rows, cols = np.nonzero(dense)
    m = SparseMatrix.from_coo(20, 20, rows, cols, dense[rows, cols])
    x = rng.standard_normal(20)
    expected = dense @ x
    assert np.linalg.norm(spmv(m, x) - expected) <= 1e-13 * max(1.0, np.linalg.norm(expected))


def test_transpose_identity():
    m = SparseMatrix.identity(4)
    assert np.array_equal(sparse_transpose(m).to_dense(), np.eye(4))


def test_transpose_row_to_column():
    row = SparseMatrix.from_coo(1, 2, [0, 0], [0, 1], [2.5, -3.0])
    col = sparse_transpose(row)
    assert col.shape == (2, 1)
    assert np.array_equal(col.to_dense(), np.array([[2.5], [-3.0]]))


def test_transpose_round_trip():
    rng = np.random.default_rng(11)
    dense = rng.standard_normal((5, 7))
    dense[np.abs(dense) < 0.7] = 0.0
    rows, cols = np.nonzero(dense)
    m = SparseMatrix.from_coo(5, 7, rows, cols, dense[rows, cols])
    back = sparse_transpose(sparse_transpose(m))
    assert back.shape == m.shape
    assert np.array_equal(back.indptr, m.indptr)
    assert np.array_equal(back.indices, m.indices)
    assert np.array_equal(back.data, m.data)


def test_add_scaled_identity_coefficients():
    m = SparseMatrix.from_coo(3, 3, [0, 1, 2, 0], [0, 1, 2, 2], [1.0, 2.0, 3.0, 4.0])
    other = SparseMatrix.identity(3)
    out = sparse_add_scaled(m, other, 1.0, 0.0)
    assert np.array_equal(out.indptr, m.indptr)
    assert np.array_equal(out.indices, m.indices)
    assert np.array_equal(out.data, m.data)


def test_add_scaled_cancellation_keeps_structure():
    m = SparseMatrix.from_coo(3, 3, [0, 1, 2], [1, 0, 2], [5.0, -2.0, 9.0])
    out = sparse_add_scaled(m, m, 1.0, -1.0)
    out.validate()
    assert out.nnz == m.nnz  # structural zeros survive, not pruned
    assert np.all(out.data == 0.0)


def test_add_scaled_tridiag_plus_diag():
    n = 6
    rows, cols, vals = [], [], []
    for i in range(n):
        rows.append(i); cols.append(i); vals.append(2.0)
        if i + 1 < n:
            rows += [i, i + 1]
            cols += [i + 1, i]
            vals += [-1.0, -1.0]
    tri = SparseMatrix.from_coo(n, n, rows, cols, vals)
    dia = SparseMatrix.diagonal(np.arange(1.0, n + 1.0))
    out = sparse_add_scaled(tri, dia, 2.0, 3.0)
    expected = 2.0 * tri.to_dense() + 3.0 * dia.to_dense()
    assert np.array_equal(out.to_dense(), expected)


def test_add_scaled_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        sparse_add_scaled(SparseMatrix.identity(2), SparseMatrix.identity(3), 1.0, 1.0)


def test_triple_diag_identity_ones():
    out = sparse_triple_diag(SparseMatrix.identity(3), np.ones(3))
    assert np.array_equal(out.to_dense(), np.eye(3))


def test_triple_diag_identity_weights():
    out = sparse_triple_diag(SparseMatrix.identity(2), np.array([2.0, 3.0]))
    assert np.array_equal(out.to_dense(), np.diag([2.0, 3.0]))


def test_triple_diag_matches_dense():
    rng = np.random.default_rng(3)
    dense = rng.standard_normal((6, 6))
    dense[np.abs(dense) < 0.6] = 0.0
    rows, cols = np.nonzero(dense)
    a = SparseMatrix.from_coo(6, 6, rows, cols, dense[rows, cols])
    d = rng.uniform(0.5, 2.0, size=6)
    out = sparse_triple_diag(a, d)
    expected = dense.T @ np.diag(d) @ dense
    assert np.max(np.abs(out.to_dense() - expected)) <= 1e-13
    # exact symmetry by construction
    od = out.to_dense()
    assert np.array_equal(od, od.T)


def test_triple_diag_rejects_nonpositive_diagonal():
    with pytest.raises(NonpositiveDiagonalError):
        sparse_triple_diag(SparseMatrix.identity(2), np.array([1.0, 0.0]))


def test_from_coo_sums_duplicates():
    m = SparseMatrix.from_coo(2, 2, [0, 0, 1], [0, 0, 1], [1.0, 2.0, 5.0])
    assert m.nnz == 2
    assert np.array_equal(m.to_dense(), np.array([[3.0, 0.0], [0.0, 5.0]]))


def test_from_coo_rejects_out_of_range():
    with pytest.raises(DimensionMismatchError):
        SparseMatrix.from_coo(2, 2, [2], [0], [1.0])
    with pytest.raises(DimensionMismatchError):
        SparseMatrix.from_coo(2, 2, [0], [-1], [1.0])


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
    m = SparseMatrix.from_coo(nrows, ncols, rows, cols, vals)
    m.validate()
    expected = np.zeros((nrows, ncols))
    for r, c, v in zip(rows, cols, vals):
        expected[r, c] += v
    assert np.allclose(m.to_dense(), expected, rtol=0, atol=1e-12)
    # transposing twice is the identity on canonical CSR
    back = sparse_transpose(sparse_transpose(m))
    assert np.array_equal(back.to_dense(), m.to_dense())


def test_sparse_lu_solves_and_refines():
    rng = np.random.default_rng(31)
    dense = rng.standard_normal((12, 12)) + 12.0 * np.eye(12)
    dense[np.abs(dense) < 0.8] = 0.0
    m = SparseMatrix.from_scipy(dense)
    b = rng.standard_normal(12)
    for residual in (False, True):
        x = SparseLU(m, "test", 1e-12, residual=residual)(b)
        assert np.linalg.norm(dense @ x - b) <= 1e-12 * np.linalg.norm(b)
    assert np.all(SparseLU(m, "test", 1e-12)(np.zeros(12)) == 0.0)


def test_sparse_lu_singular_names_matrix():
    m = SparseMatrix.diagonal([1.0, 0.0, 2.0])
    with pytest.raises(SingularMatrixError, match="block 2 matrix"):
        SparseLU(m, "block 2", 1e-12)


def test_sparse_lu_stalled_refinement_reports_error():
    rng = np.random.default_rng(32)
    m = SparseMatrix.from_scipy(rng.standard_normal((8, 8)) + 8.0 * np.eye(8))
    solver = SparseLU(m, "forward", 1e-30, residual=True)
    with pytest.raises(RefinementError, match=r"forward solve: .*relative residual \d"):
        solver(rng.standard_normal(8))
