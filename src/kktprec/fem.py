"""P1 finite element assembly on structured triangle meshes.

Operators provided: mass matrix, lumped mass, Poisson stiffness with
homogeneous Dirichlet conditions imposed weakly by the symmetric Nitsche
method, a Neumann-Laplacian-plus-shift regularization operator, pointwise
observation matrices, and image-to-field interpolation.

One scatter (`_assemble`) builds every FEM matrix from groups of (triangle
rows, 3x3 element matrix): two parity groups for the volume terms, as the
mesh has two triangle shapes, and one group per wall for the Nitsche terms.
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


def _p1_geometry(xy: np.ndarray):
    """(b, c, signed 2*area) of a triangle; hat gradient i is (b_i, c_i) / (2*area)."""
    x = xy[:, 0]
    y = xy[:, 1]
    b = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
    c = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
    return b, c, x[0] * b[0] + x[1] * b[1] + x[2] * b[2]


def p1_stiffness_element(xy: np.ndarray) -> np.ndarray:
    """Element stiffness matrix from a 3x2 array of vertex coordinates."""
    b, c, area2 = _p1_geometry(xy)
    return (np.outer(b, b) + np.outer(c, c)) / (2.0 * area2)


def p1_gradients(xy: np.ndarray) -> np.ndarray:
    """Constant gradients of the three hat functions, rows grad(phi_i)."""
    b, c, area2 = _p1_geometry(xy)
    return np.column_stack([b, c]) / area2


def _from_coo(shape, rows, cols, vals) -> sp.csr_matrix:
    """Canonical CSR from triplets; duplicate (row, col) entries are summed."""
    return sp.coo_matrix((vals, (rows, cols)), shape=shape, dtype=np.float64).tocsr()


def _assemble(mesh: TriMesh, groups) -> sp.csr_matrix:
    """Scatter (triangle rows, 3x3 element matrix) groups into one n x n
    matrix and symmetrize it. Triplets run group by group, then entry (i, j)
    of the element in row-major order, then triangle."""
    i, j = np.divmod(np.arange(9), 3)
    tris = [mesh.triangles[rows] for rows, _ in groups]
    m = _from_coo(
        (mesh.n_vertices, mesh.n_vertices),
        np.concatenate([t.T[i].ravel() for t in tris]),
        np.concatenate([t.T[j].ravel() for t in tris]),
        np.concatenate([np.repeat(ke.ravel(), t.shape[0]) for t, (_, ke) in zip(tris, groups)]),
    )
    return (m + m.T) * 0.5


def _volume_groups(mesh: TriMesh, element_for_xy):
    """One group per parity: the even and odd triangle rows each share one shape."""
    return [
        (slice(parity, None, 2), element_for_xy(mesh.vertices[mesh.triangles[parity]]))
        for parity in (0, 1)
    ]


def assemble_mass(mesh: TriMesh) -> sp.csr_matrix:
    """P1 mass matrix (exact integration)."""
    area = 0.5 * mesh.dx * mesh.dy
    return _assemble(mesh, _volume_groups(mesh, lambda _xy: p1_mass_element(area)))


def lump_mass(w: sp.csr_matrix) -> np.ndarray:
    """Row-sum mass lumping; returns the diagonal as a vector."""
    lumped = np.asarray(w.sum(axis=1)).ravel()
    if np.any(lumped <= 0.0):
        raise NonpositiveLumpedMassError("row-sum lumping produced a nonpositive weight")
    return lumped


def assemble_stiffness_neumann(mesh: TriMesh) -> sp.csr_matrix:
    """Pure stiffness matrix, no boundary terms (natural conditions)."""
    return _assemble(mesh, _volume_groups(mesh, p1_stiffness_element))


def _sides(mesh: TriMesh):
    """Per wall: its boundary triangles' rows, s marking their local vertices
    on the wall, the outward normal and h_e. The bottom row and right column
    contribute lower-right triangles, the top row and left column upper-left."""
    nx, ny = mesh.nx, mesh.ny
    ix, iy = np.arange(nx), np.arange(ny)
    return [
        (2 * ix, [1.0, 1.0, 0.0], [0.0, -1.0], mesh.dx),
        (2 * ((ny - 1) * nx + ix) + 1, [0.0, 1.0, 1.0], [0.0, 1.0], mesh.dx),
        (2 * iy * nx + 1, [1.0, 0.0, 1.0], [-1.0, 0.0], mesh.dy),
        (2 * (iy * nx + nx - 1), [0.0, 1.0, 1.0], [1.0, 0.0], mesh.dy),
    ]


def assemble_stiffness_nitsche(mesh: TriMesh, gamma0: float = DEFAULT_NITSCHE_GAMMA) -> sp.csr_matrix:
    """Stiffness matrix with homogeneous Dirichlet walls via symmetric Nitsche.

    The boundary terms per edge e with outward normal n are
    -(dn u, v)_e - (u, dn v)_e + (gamma0 / h_e)(u, v)_e. gamma0 must be large
    enough for coercivity; too small a value leaves the form indefinite.
    Every triangle along a wall has the same shape and local edge vertices,
    so each wall adds one element matrix -(h_e/2)(s f^T + f s^T) +
    (gamma0/6)(s s^T + diag s), with f the normal fluxes n . grad(phi_i).
    """
    if gamma0 <= 0.0:
        raise MeshParameterError("Nitsche penalty must be positive")
    groups = _volume_groups(mesh, p1_stiffness_element)
    for rows, s, normal, h_e in _sides(mesh):
        f = p1_gradients(mesh.vertices[mesh.triangles[rows[0]]]) @ normal
        consistency = -(h_e / 2.0) * (np.outer(s, f) + np.outer(f, s))
        groups.append((rows, consistency + (gamma0 / 6.0) * (np.outer(s, s) + np.diag(s))))
    return _assemble(mesh, groups)


def assemble_regularization(mesh: TriMesh, t: float = DEFAULT_REG_SHIFT) -> sp.csr_matrix:
    """Neumann Laplacian plus t times the identity, in weak form: K + t*W.

    t must be positive; it removes the constant-function kernel of the
    Neumann stiffness, so the result is SPD.
    """
    if t <= 0.0:
        raise MeshParameterError("regularization shift t must be positive")
    return assemble_stiffness_neumann(mesh) + t * assemble_mass(mesh)


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
