"""P1 finite element assembly on structured triangle meshes.

Operators provided: mass matrix, lumped mass, Poisson stiffness with
homogeneous Dirichlet conditions imposed weakly by the symmetric Nitsche
method, a Neumann-Laplacian-plus-shift regularization operator, pointwise
observation matrices, and image-to-field interpolation.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .mesh import MeshParameterError, NodalField, ObservationSet, PointLocationError, TriMesh

DEFAULT_NITSCHE_GAMMA = 10.0
DEFAULT_REG_SHIFT = 0.1


class NonpositiveLumpedMassError(ValueError):
    """Lumping produced a nonpositive vertex weight (broken mesh)."""


def p1_mass_element(area: float) -> np.ndarray:
    """Element mass matrix of a triangle with the given area."""
    return (area / 12.0) * np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])


def p1_stiffness_element(xy: np.ndarray) -> np.ndarray:
    """Element stiffness matrix from a 3x2 array of vertex coordinates."""
    x = xy[:, 0]
    y = xy[:, 1]
    b = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
    c = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
    area2 = x[0] * b[0] + x[1] * b[1] + x[2] * b[2]  # = 2*area, signed
    return (np.outer(b, b) + np.outer(c, c)) / (2.0 * area2)


def p1_gradients(xy: np.ndarray) -> np.ndarray:
    """Constant gradients of the three hat functions, rows grad(phi_i)."""
    x = xy[:, 0]
    y = xy[:, 1]
    b = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
    c = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
    area2 = x[0] * b[0] + x[1] * b[1] + x[2] * b[2]
    return np.column_stack([b, c]) / area2


def _from_coo(shape, rows, cols, vals) -> sp.csr_matrix:
    """Canonical CSR from triplets; duplicate (row, col) entries are summed."""
    return sp.coo_matrix((vals, (rows, cols)), shape=shape, dtype=np.float64).tocsr()


def _symmetrized(m: sp.csr_matrix) -> sp.csr_matrix:
    return (m + m.T) * 0.5


def _assemble_from_elements(mesh: TriMesh, element_for_parity) -> sp.csr_matrix:
    """Scatter per-parity element matrices; the structured mesh has only two
    distinct triangle geometries (even/odd index), so one 3x3 matrix each."""
    n = mesh.n_vertices
    rows = []
    cols = []
    vals = []
    for parity in (0, 1):
        tris = mesh.triangles[parity::2]
        ke = element_for_parity(parity)
        for i in range(3):
            for j in range(3):
                rows.append(tris[:, i])
                cols.append(tris[:, j])
                vals.append(np.full(tris.shape[0], ke[i, j]))
    return _from_coo((n, n), np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))


def _parity_coords(mesh: TriMesh, parity: int) -> np.ndarray:
    tri = mesh.triangles[parity]
    return mesh.vertices[tri]


def assemble_mass(mesh: TriMesh) -> sp.csr_matrix:
    """P1 mass matrix (exact integration)."""
    area = 0.5 * mesh.dx * mesh.dy

    def element(_parity):
        return p1_mass_element(area)

    return _symmetrized(_assemble_from_elements(mesh, element))


def lump_mass(w: sp.csr_matrix) -> np.ndarray:
    """Row-sum mass lumping; returns the diagonal as a vector."""
    lumped = np.asarray(w.sum(axis=1)).ravel()
    if np.any(lumped <= 0.0):
        raise NonpositiveLumpedMassError("row-sum lumping produced a nonpositive weight")
    return lumped


def assemble_stiffness_neumann(mesh: TriMesh) -> sp.csr_matrix:
    """Pure stiffness matrix, no boundary terms (natural conditions)."""

    def element(parity):
        return p1_stiffness_element(_parity_coords(mesh, parity))

    return _symmetrized(_assemble_from_elements(mesh, element))


def _boundary_edges(mesh: TriMesh):
    """Yield (edge vertex a, edge vertex b, triangle row index, outward normal, h_e)
    arrays for each of the four sides."""
    nx, ny = mesh.nx, mesh.ny
    nxy = nx + 1

    ix = np.arange(nx)
    iy = np.arange(ny)

    # bottom: lower-right triangle of cells (ix, 0)
    yield ix, ix + 1, 2 * ix, np.array([0.0, -1.0]), mesh.dx
    # top: upper-left triangle of cells (ix, ny-1)
    top0 = ny * nxy + ix
    yield top0, top0 + 1, 2 * ((ny - 1) * nx + ix) + 1, np.array([0.0, 1.0]), mesh.dx
    # left: upper-left triangle of cells (0, iy)
    left0 = iy * nxy
    yield left0, left0 + nxy, 2 * (iy * nx) + 1, np.array([-1.0, 0.0]), mesh.dy
    # right: lower-right triangle of cells (nx-1, iy)
    right0 = iy * nxy + nx
    yield right0, right0 + nxy, 2 * (iy * nx + nx - 1), np.array([1.0, 0.0]), mesh.dy


def assemble_stiffness_nitsche(mesh: TriMesh, gamma0: float = DEFAULT_NITSCHE_GAMMA) -> sp.csr_matrix:
    """Stiffness matrix with homogeneous Dirichlet walls via symmetric Nitsche.

    The boundary terms per edge e with outward normal n are
    -(dn u, v)_e - (u, dn v)_e + (gamma0 / h_e)(u, v)_e. gamma0 must be large
    enough for coercivity; too small a value leaves the form indefinite.
    """
    if gamma0 <= 0.0:
        raise MeshParameterError("Nitsche penalty must be positive")
    base = assemble_stiffness_neumann(mesh)

    n = mesh.n_vertices
    rows = []
    cols = []
    vals = []

    def add(r, c, v):
        rows.append(np.asarray(r, dtype=np.int64))
        cols.append(np.asarray(c, dtype=np.int64))
        vals.append(np.asarray(v, dtype=np.float64))

    for va, vb, tri_rows, normal, h_e in _boundary_edges(mesh):
        tris = mesh.triangles[tri_rows]  # (m, 3) vertex indices
        grads = p1_gradients(mesh.vertices[tris[0]])  # same geometry along a side
        flux = grads @ normal  # n . grad(phi_i), per local vertex
        m = tris.shape[0]
        # consistency: -(dn u, v)_e couples every trial vertex of the
        # triangle with the two edge test vertices; added symmetrically.
        for j_edge in (va, vb):
            for i_local in range(3):
                i_glob = tris[:, i_local]
                val = np.full(m, -flux[i_local] * h_e / 2.0)
                add(j_edge, i_glob, val)
                add(i_glob, j_edge, val)
        # penalty: (gamma0/h_e) * edge mass [[h/3, h/6], [h/6, h/3]]
        add(va, va, np.full(m, gamma0 / 3.0))
        add(vb, vb, np.full(m, gamma0 / 3.0))
        add(va, vb, np.full(m, gamma0 / 6.0))
        add(vb, va, np.full(m, gamma0 / 6.0))

    boundary = _from_coo((n, n), np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))
    return _symmetrized(base + boundary)


def assemble_regularization(mesh: TriMesh, t: float = DEFAULT_REG_SHIFT) -> sp.csr_matrix:
    """Neumann Laplacian plus t times the identity, in weak form: K + t*W.

    t must be positive; it removes the constant-function kernel of the
    Neumann stiffness, so the result is SPD.
    """
    if t <= 0.0:
        raise MeshParameterError("regularization shift t must be positive")
    k = assemble_stiffness_neumann(mesh)
    w = assemble_mass(mesh)
    return k + t * w


def _barycentric_rows(mesh: TriMesh, points: np.ndarray):
    """Vertex indices and weights for P1 point evaluation, zeros dropped,
    as (rows, cols, vals) arrays ordered by point, then by triangle corner."""
    nx = mesh.nx
    x, y = points[:, 0], points[:, 1]
    inside = (0.0 < x) & (x < mesh.lx) & (0.0 < y) & (y < mesh.ly)
    if not np.all(inside):
        k = int(np.argmin(inside))
        raise PointLocationError(f"point {k} at ({x[k]}, {y[k]}) outside the open domain")
    cx = np.minimum((x / mesh.dx).astype(np.int64), nx - 1)
    cy = np.minimum((y / mesh.dy).astype(np.int64), mesh.ny - 1)
    xi = x / mesh.dx - cx
    eta = y / mesh.dy - cy
    v00 = cy * (nx + 1) + cx
    v10 = v00 + 1
    v01 = v00 + (nx + 1)
    v11 = v01 + 1
    # lower-right triangle (v00, v10, v11) where xi >= eta, else upper-left (v00, v11, v01)
    lower = (xi >= eta)[:, None]
    cols = np.where(lower, np.column_stack([v00, v10, v11]), np.column_stack([v00, v11, v01]))
    vals = np.where(
        lower, np.column_stack([1.0 - xi, xi - eta, eta]), np.column_stack([1.0 - eta, xi, eta - xi])
    )
    keep = ~(np.abs(vals) < 1e-14)
    rows = np.broadcast_to(np.arange(points.shape[0])[:, None], keep.shape)
    return rows[keep], cols[keep], vals[keep]


def assemble_observation(mesh: TriMesh, obs: ObservationSet) -> sp.csr_matrix:
    """Pointwise evaluation matrix: row i holds the barycentric weights of
    observation point i in its containing triangle (at most 3 nonzeros,
    rows sum to one)."""
    if not (abs(obs.lx - mesh.lx) < 1e-12 and abs(obs.ly - mesh.ly) < 1e-12):
        raise PointLocationError("observation extents do not match the mesh")
    rows, cols, vals = _barycentric_rows(mesh, obs.points)
    return _from_coo((obs.n_obs, mesh.n_vertices), rows, cols, vals)


def interpolate_image(
    mesh: TriMesh, image: np.ndarray, low: float = 0.0, high: float = 1.0
) -> NodalField:
    """Bilinear interpolation of a raster image onto the mesh vertices.

    Image row 0 maps to the top of the domain (y = ly). Pixel values are
    affinely rescaled so the image minimum maps to low and the maximum to
    high; a constant image maps everywhere to low.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2 or img.size == 0:
        raise ValueError("image must be a nonempty 2-D array")
    lo_px = float(img.min())
    hi_px = float(img.max())
    if hi_px > lo_px:
        scaled = low + (img - lo_px) * ((high - low) / (hi_px - lo_px))
    else:
        scaled = np.full_like(img, low)

    h_px, w_px = scaled.shape
    x = mesh.vertices[:, 0]
    y = mesh.vertices[:, 1]
    cf = (x / mesh.lx) * (w_px - 1) if w_px > 1 else np.zeros_like(x)
    rf = (1.0 - y / mesh.ly) * (h_px - 1) if h_px > 1 else np.zeros_like(y)

    c0 = np.clip(np.floor(cf).astype(np.int64), 0, max(w_px - 2, 0))
    r0 = np.clip(np.floor(rf).astype(np.int64), 0, max(h_px - 2, 0))
    tc = cf - c0
    tr = rf - r0
    c1 = np.minimum(c0 + 1, w_px - 1)
    r1 = np.minimum(r0 + 1, h_px - 1)

    vals = (
        scaled[r0, c0] * (1 - tr) * (1 - tc)
        + scaled[r0, c1] * (1 - tr) * tc
        + scaled[r1, c0] * tr * (1 - tc)
        + scaled[r1, c1] * tr * tc
    )
    return NodalField(mesh=mesh, values=vals)
