import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from kktprec.fem import (
    NonpositiveLumpedMassError,
    _barycentric_rows,
    assemble_mass,
    assemble_observation,
    assemble_regularization,
    assemble_stiffness_neumann,
    assemble_stiffness_nitsche,
    interpolate_image,
    lump_mass,
    p1_gradients,
    p1_mass_element,
    p1_stiffness_element,
)
from kktprec.mesh import MeshParameterError, ObservationSet, PointLocationError, build_mesh


# --- mass ------------------------------------------------------------------

def test_mass_partition_of_unity():
    mesh = build_mesh(1.0, 1.0, 1, 1)
    w = assemble_mass(mesh)
    assert abs(w.toarray().sum() - 1.0) <= 1e-12


def test_mass_total_sum_rectangle():
    mesh = build_mesh(1.45, 1.0, 5, 4)
    assert abs(assemble_mass(mesh).toarray().sum() - 1.45) <= 1e-12


def test_mass_exact_symmetry():
    w = assemble_mass(build_mesh(2.0, 1.0, 4, 3)).toarray()
    assert np.array_equal(w, w.T)


def test_mass_element_closed_form():
    area = 0.37
    expected = (area / 12.0) * np.array(
        [[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
    assert np.allclose(p1_mass_element(area), expected, rtol=0, atol=1e-16)


def test_stiffness_element_unit_right_triangle():
    xy = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    expected = 0.5 * np.array(
        [[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    assert np.allclose(p1_stiffness_element(xy), expected, atol=1e-14)
    # gradients of the barycentric basis on that triangle
    grads = p1_gradients(xy)
    assert np.allclose(grads, [[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]], atol=1e-14)


def test_mass_spd():
    w = assemble_mass(build_mesh(1.0, 1.0, 3, 3))
    eigs = np.linalg.eigvalsh(w.toarray())
    assert eigs[0] > 0.0


# --- lumped mass -------------------------------------------------------------

def test_lump_interior_entry():
    mesh = build_mesh(1.0, 1.0, 4, 4)
    wl = lump_mass(assemble_mass(mesh))
    k = mesh.vertex_index(2, 2)
    # interior vertex touches 6 triangles of area dx*dy/2 each; a third of
    # that mass lands on the vertex
    assert abs(wl[k] - mesh.dx * mesh.dy) <= 1e-14


def test_lump_unit_square_sum():
    wl = lump_mass(assemble_mass(build_mesh(1.0, 1.0, 1, 1)))
    assert abs(wl.sum() - 1.0) <= 1e-14


def test_lump_corner_entries():
    mesh = build_mesh(1.0, 1.0, 3, 3)
    wl = lump_mass(assemble_mass(mesh))
    tri_area = mesh.dx * mesh.dy / 2.0
    # bottom-right corner sits in exactly one triangle
    assert abs(wl[mesh.vertex_index(3, 0)] - tri_area / 3.0) <= 1e-15
    # bottom-left corner sits in two (the diagonal passes through it)
    assert abs(wl[mesh.vertex_index(0, 0)] - 2.0 * tri_area / 3.0) <= 1e-15


def test_lump_equals_row_sums():
    w = assemble_mass(build_mesh(1.45, 1.0, 4, 3))
    assert np.allclose(lump_mass(w), w.toarray().sum(axis=1), atol=1e-15)


def test_lump_rejects_nonpositive_row_sum():
    with pytest.raises(NonpositiveLumpedMassError):
        lump_mass(sp.csr_matrix([[1.0, -2.0], [-2.0, 1.0]]))


# --- Nitsche stiffness -------------------------------------------------------

def test_nitsche_exact_symmetry():
    a = assemble_stiffness_nitsche(build_mesh(1.0, 1.0, 4, 4)).toarray()
    assert np.array_equal(a, a.T)


def test_nitsche_positive_definite_at_default_penalty():
    a = assemble_stiffness_nitsche(build_mesh(1.45, 1.0, 4, 3))
    assert np.linalg.eigvalsh(a.toarray())[0] > 0.0


def test_nitsche_rejects_tiny_penalty():
    # too small a penalty loses coercivity: the assembled form is indefinite
    a = assemble_stiffness_nitsche(build_mesh(1.0, 1.0, 4, 4), gamma0=1e-3)
    assert np.linalg.eigvalsh(a.toarray())[0] <= 0.0


def test_nitsche_rejects_nonpositive_penalty():
    with pytest.raises(MeshParameterError):
        assemble_stiffness_nitsche(build_mesh(1.0, 1.0, 2, 2), gamma0=0.0)


def _nitsche_wall_triplets(mesh, gamma0):
    """Oracle for the Nitsche wall terms, emitted edge by edge as triplets:
    per boundary edge (a, b) of a triangle with outward normal n, the
    consistency entries -(h_e/2) n.grad(phi_i) join each edge vertex with
    each triangle vertex (added in both orders), and the penalty adds
    (gamma0/h_e) times the edge mass [[h_e/3, h_e/6], [h_e/6, h_e/3]]."""
    nx, ny, nxy = mesh.nx, mesh.ny, mesh.nx + 1
    ix, iy = np.arange(nx), np.arange(ny)
    top0, left0, right0 = ny * nxy + ix, iy * nxy, iy * nxy + nx
    sides = [
        (ix, ix + 1, 2 * ix, (0.0, -1.0), mesh.dx),
        (top0, top0 + 1, 2 * ((ny - 1) * nx + ix) + 1, (0.0, 1.0), mesh.dx),
        (left0, left0 + nxy, 2 * (iy * nx) + 1, (-1.0, 0.0), mesh.dy),
        (right0, right0 + nxy, 2 * (iy * nx + nx - 1), (1.0, 0.0), mesh.dy),
    ]
    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(np.asarray(r, dtype=np.int64))
        cols.append(np.asarray(c, dtype=np.int64))
        vals.append(np.asarray(v, dtype=np.float64))

    for va, vb, tri_rows, normal, h_e in sides:
        tris = mesh.triangles[tri_rows]
        flux = p1_gradients(mesh.vertices[tris[0]]) @ np.array(normal)
        m = tris.shape[0]
        for j_edge in (va, vb):
            for i_local in range(3):
                val = np.full(m, -flux[i_local] * h_e / 2.0)
                add(j_edge, tris[:, i_local], val)
                add(tris[:, i_local], j_edge, val)
        add(va, va, np.full(m, gamma0 / 3.0))
        add(vb, vb, np.full(m, gamma0 / 3.0))
        add(va, vb, np.full(m, gamma0 / 6.0))
        add(vb, va, np.full(m, gamma0 / 6.0))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


@pytest.mark.parametrize("gamma0", [1.0, 10.0])
@pytest.mark.parametrize("nx, ny", [(1, 1), (2, 1), (1, 3), (3, 2), (10, 7), (29, 20)])
def test_nitsche_matches_edge_by_edge_oracle(nx, ny, gamma0):
    """A equals the Neumann stiffness plus the oracle's wall triplets,
    symmetrized, to rounding. Entries where a wall term cancels a volume
    term are small against their terms, so the 2-ulp bound is taken at the
    scale of each entry's terms: the same sum over their magnitudes."""
    mesh = build_mesh(1.45, 1.0, nx, ny)
    n = mesh.n_vertices
    k = assemble_stiffness_neumann(mesh)
    r, c, v = _nitsche_wall_triplets(mesh, gamma0)
    expected = k + sp.coo_matrix((v, (r, c)), shape=(n, n)).tocsr()
    expected = (expected + expected.T) * 0.5
    scale = abs(k) + sp.coo_matrix((np.abs(v), (r, c)), shape=(n, n)).tocsr()
    scale = ((scale + scale.T) * 0.5).toarray()[expected.nonzero()]

    a = assemble_stiffness_nitsche(mesh, gamma0=gamma0)
    assert np.array_equal(a.indptr, expected.indptr)
    assert np.array_equal(a.indices, expected.indices)
    assert np.all(np.abs(a.data - expected.data) <= 2 * np.spacing(scale))
    assert (a != a.T).nnz == 0


def poisson_l2_error(nx, ny, lx=1.0, ly=1.0, gamma0=10.0):
    """Manufactured Poisson solve; returns the mass-norm interpolation error."""
    mesh = build_mesh(lx, ly, nx, ny)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    u_star = np.sin(np.pi * x / lx) * np.sin(np.pi * y / ly)
    f = np.pi**2 * (1.0 / lx**2 + 1.0 / ly**2) * u_star
    a = assemble_stiffness_nitsche(mesh, gamma0=gamma0)
    w = assemble_mass(mesh)
    u_h = spsolve(a, w @ f)
    e = u_h - u_star
    return float(np.sqrt(e @ (w @ e)))


def test_manufactured_convergence_rate():
    errs = [poisson_l2_error(n, n) for n in (8, 16, 32)]
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(rates >= 1.8), rates


def test_penalty_limit_pins_boundary():
    mesh = build_mesh(1.0, 1.0, 8, 8)
    bdry = mesh.boundary_vertices()
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    f = np.ones(mesh.n_vertices)
    w = assemble_mass(mesh)

    def boundary_max(gamma0):
        a = assemble_stiffness_nitsche(mesh, gamma0=gamma0)
        u = spsolve(a, w @ f)
        return float(np.abs(u[bdry]).max())

    b_small = boundary_max(1e2)
    b_large = boundary_max(1e5)
    # boundary values decay like 1/gamma0
    assert b_large <= 3.0 * b_small * (1e2 / 1e5)
    assert b_large <= 1e-4


# --- regularization ----------------------------------------------------------

def test_regularization_annihilates_constants_up_to_shift():
    mesh = build_mesh(1.45, 1.0, 5, 4)
    w = assemble_mass(mesh)
    reg = assemble_regularization(mesh, w, t=0.1)
    ones = np.ones(mesh.n_vertices)
    assert np.max(np.abs(reg @ ones - 0.1 * (w @ ones))) <= 1e-13


def test_regularization_hand_assembled_single_cell():
    # 1x1-cell unit square, t=1: compare against element-by-element hand
    # assembly of stiffness + mass into the 4-vertex dense matrix
    mesh = build_mesh(1.0, 1.0, 1, 1)
    reg = assemble_regularization(mesh, assemble_mass(mesh), t=1.0).toarray()
    expected = np.zeros((4, 4))
    for tri in mesh.triangles:
        xy = mesh.vertices[tri]
        ke = p1_stiffness_element(xy) + p1_mass_element(0.5)
        for i in range(3):
            for j in range(3):
                expected[tri[i], tri[j]] += ke[i, j]
    assert np.allclose(reg, expected, atol=1e-14)


def test_regularization_spd():
    mesh = build_mesh(1.0, 1.0, 4, 4)
    reg = assemble_regularization(mesh, assemble_mass(mesh), t=0.1)
    assert np.linalg.eigvalsh(reg.toarray())[0] > 0.0


def test_regularization_rejects_nonpositive_shift():
    with pytest.raises(MeshParameterError):
        mesh = build_mesh(1.0, 1.0, 2, 2)
        assemble_regularization(mesh, assemble_mass(mesh), t=0.0)


def test_regularization_equals_neumann_plus_shifted_mass():
    mesh = build_mesh(1.45, 1.0, 3, 3)
    w = assemble_mass(mesh)
    reg = assemble_regularization(mesh, w, t=0.25).toarray()
    k = assemble_stiffness_neumann(mesh).toarray()
    assert np.allclose(reg, k + 0.25 * w.toarray(), atol=1e-14)


# --- observation -------------------------------------------------------------

def test_observation_row_at_vertex():
    mesh = build_mesh(1.0, 1.0, 2, 2)
    j = mesh.vertex_index(1, 1)
    obs = ObservationSet(points=mesh.vertices[[j]], lx=1.0, ly=1.0)
    row = assemble_observation(mesh, obs).toarray()[0]
    e_j = np.zeros(mesh.n_vertices)
    e_j[j] = 1.0
    assert np.allclose(row, e_j, atol=1e-14)


def test_observation_row_at_centroid():
    mesh = build_mesh(1.0, 1.0, 2, 2)
    tri = mesh.triangles[0]
    centroid = mesh.vertices[tri].mean(axis=0)
    obs = ObservationSet(points=centroid[None, :], lx=1.0, ly=1.0)
    row = assemble_observation(mesh, obs).toarray()[0]
    expected = np.zeros(mesh.n_vertices)
    expected[tri] = 1.0 / 3.0
    assert np.allclose(row, expected, atol=1e-13)


def test_observation_row_at_edge_midpoint():
    # center of a cell lies on the shared diagonal: two weights of 1/2
    mesh = build_mesh(1.0, 1.0, 2, 2)
    point = np.array([[0.25, 0.25]])
    row = assemble_observation(mesh, ObservationSet(points=point, lx=1.0, ly=1.0)).toarray()[0]
    nz = row[row > 1e-13]
    assert nz.size == 2
    assert np.allclose(nz, 0.5, atol=1e-13)


def test_observation_rows_sum_to_one():
    mesh = build_mesh(1.45, 1.0, 5, 4)
    rng = np.random.default_rng(2)
    pts = np.column_stack([rng.uniform(0.01, 1.44, 40), rng.uniform(0.01, 0.99, 40)])
    b = assemble_observation(mesh, ObservationSet(points=pts, lx=1.45, ly=1.0))
    sums = b.toarray().sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) <= 1e-13
    # at most 3 entries per row
    assert np.max(np.diff(b.indptr)) <= 3


def test_observation_converges_to_point_values():
    # B applied to the interpolant of a smooth field approaches pointwise
    # values under refinement
    pts = np.array([[0.312, 0.471], [0.9, 0.13], [0.05, 0.88]])
    f = lambda x, y: np.sin(2.3 * x) * np.cos(1.1 * y)
    errs = []
    for n in (4, 8, 16, 32):
        mesh = build_mesh(1.0, 1.0, n, n)
        b = assemble_observation(mesh, ObservationSet(points=pts, lx=1.0, ly=1.0))
        vals = b @ f(mesh.vertices[:, 0], mesh.vertices[:, 1])
        errs.append(np.max(np.abs(vals - f(pts[:, 0], pts[:, 1]))))
    assert errs[-1] < errs[0]
    assert errs[-1] <= 5e-3


def test_observation_rejects_outside_point():
    mesh = build_mesh(1.0, 1.0, 2, 2)
    with pytest.raises(PointLocationError):
        ObservationSet(points=np.array([[1.5, 0.5]]), lx=1.0, ly=1.0)


def _barycentric_rows_loop(mesh, points):
    """The per-point loop that _barycentric_rows replaced, kept as its oracle."""
    nx, ny = mesh.nx, mesh.ny
    rows, cols, vals = [], [], []
    for k, (x, y) in enumerate(points):
        if not (0.0 < x < mesh.lx and 0.0 < y < mesh.ly):
            raise PointLocationError(f"point {k} at ({x}, {y}) outside the open domain")
        cx = min(int(x / mesh.dx), nx - 1)
        cy = min(int(y / mesh.dy), ny - 1)
        xi = x / mesh.dx - cx
        eta = y / mesh.dy - cy
        v00 = cy * (nx + 1) + cx
        v10 = v00 + 1
        v01 = v00 + (nx + 1)
        v11 = v01 + 1
        if xi >= eta:
            entries = ((v00, 1.0 - xi), (v10, xi - eta), (v11, eta))
        else:
            entries = ((v00, 1.0 - eta), (v11, xi), (v01, eta - xi))
        for vtx, lam in entries:
            if abs(lam) < 1e-14:
                continue
            rows.append(k)
            cols.append(vtx)
            vals.append(lam)
    return rows, cols, vals


def test_barycentric_rows_match_the_loop_bit_for_bit():
    mesh = build_mesh(1.45, 1.0, 29, 20)
    rng = np.random.default_rng(8)
    random = np.column_stack([rng.uniform(0.0, 1.45, 300), rng.uniform(0.0, 1.0, 300)])
    # points on the cell diagonals, on interior grid lines, and at interior vertices
    t = rng.uniform(0.0, 1.0, 100)
    cx, cy = rng.integers(0, 29, 100), rng.integers(0, 20, 100)
    diagonal = np.column_stack([(cx + t) * mesh.dx, (cy + t) * mesh.dy])
    vertical = np.column_stack([rng.integers(1, 29, 100) * mesh.dx, rng.uniform(0.01, 0.99, 100)])
    horizontal = np.column_stack([rng.uniform(0.01, 1.44, 100), rng.integers(1, 20, 100) * mesh.dy])
    interior = mesh.vertices[(mesh.vertices > 0.0).all(axis=1) & (mesh.vertices < [1.45, 1.0]).all(axis=1)]
    points = np.concatenate([random, diagonal, vertical, horizontal, interior])
    points = points[(points > 0.0).all(axis=1) & (points < [1.45, 1.0]).all(axis=1)]
    got = _barycentric_rows(mesh, points)
    want = _barycentric_rows_loop(mesh, points)
    for g, w in zip(got, want):
        assert np.array_equal(g, np.asarray(w, dtype=g.dtype))
    assert got[2].dtype == np.float64
    assert got[0].size < 3 * points.shape[0]  # entries on edges and at vertices were dropped


def test_barycentric_rows_name_the_first_outside_point():
    mesh = build_mesh(1.0, 1.0, 2, 2)
    points = np.array([[0.5, 0.5], [0.25, 1.0], [1.5, 0.5]])
    with pytest.raises(PointLocationError, match=r"^point 1 at \(0.25, 1.0\) outside the open domain$"):
        _barycentric_rows(mesh, points)
    with pytest.raises(PointLocationError, match=r"^point 0 at \(nan, 0.5\)"):
        _barycentric_rows(mesh, np.array([[np.nan, 0.5]]))


# --- image interpolation -----------------------------------------------------

def test_image_constant_maps_to_low():
    mesh = build_mesh(1.0, 1.0, 2, 2)
    field = interpolate_image(mesh, np.full((4, 4), 7.0), low=0.25, high=1.0)
    assert np.all(field.values == 0.25)


def test_image_linear_ramp():
    mesh = build_mesh(1.0, 1.0, 4, 4)
    img = np.array([[0.0, 1.0], [0.0, 1.0]])
    field = interpolate_image(mesh, img, low=0.0, high=1.0)
    assert np.allclose(field.values, mesh.vertices[:, 0], atol=1e-13)


def test_image_rescale_range():
    mesh = build_mesh(1.0, 1.0, 3, 3)
    rng = np.random.default_rng(4)
    img = rng.uniform(-5.0, 9.0, size=(6, 7))
    field = interpolate_image(mesh, img, low=0.0, high=1.0)
    assert field.values.min() >= -1e-12
    assert field.values.max() <= 1.0 + 1e-12


def test_image_row_zero_is_top():
    mesh = build_mesh(1.0, 1.0, 2, 2)
    img = np.array([[1.0, 1.0], [0.0, 0.0]])  # bright top row
    field = interpolate_image(mesh, img)
    top = mesh.vertex_index(0, mesh.ny)
    bottom = mesh.vertex_index(0, 0)
    assert field.values[top] == 1.0
    assert field.values[bottom] == 0.0


def test_image_rejects_empty():
    mesh = build_mesh(1.0, 1.0, 2, 2)
    with pytest.raises(ValueError):
        interpolate_image(mesh, np.zeros((0, 3)))
