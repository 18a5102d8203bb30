"""Structured triangular meshes of a rectangle and point sets living on them."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np


class MeshParameterError(ValueError):
    """Nonpositive extents or cell counts."""


class PointLocationError(ValueError):
    """A point is outside the domain (or otherwise unlocatable)."""


@dataclass(frozen=True)
class TriMesh:
    """Uniform triangulation of [0, lx] x [0, ly].

    The cell grid is nx by ny; every cell is split along the up-right
    diagonal (lower-left to upper-right corner), so triangle areas are all
    dx*dy/2 and orientation is counterclockwise. Vertex k sits at
    (ix, iy) = (k mod (nx+1), k div (nx+1)).
    """

    lx: float
    ly: float
    nx: int
    ny: int
    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        self.vertices.flags.writeable = False
        self.triangles.flags.writeable = False

    @property
    def dx(self) -> float:
        return self.lx / self.nx

    @property
    def dy(self) -> float:
        return self.ly / self.ny

    @property
    def h(self) -> float:
        """Longest edge length (the cell diagonal)."""
        return float(np.hypot(self.dx, self.dy))

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def vertex_index(self, ix: int, iy: int) -> int:
        return iy * (self.nx + 1) + ix

    def boundary_vertices(self) -> np.ndarray:
        ix = np.arange(self.nx + 1)
        iy = np.arange(self.ny + 1)
        bottom = ix
        top = self.ny * (self.nx + 1) + ix
        left = iy * (self.nx + 1)
        right = iy * (self.nx + 1) + self.nx
        return np.unique(np.concatenate([bottom, top, left, right]))


def build_mesh(lx: float, ly: float, nx: int, ny: int) -> TriMesh:
    """Mesh the rectangle [0, lx] x [0, ly] with nx*ny cells, two triangles each."""
    if not (lx > 0 and ly > 0):
        raise MeshParameterError("extents must be positive")
    if not (isinstance(nx, (int, np.integer)) and isinstance(ny, (int, np.integer))):
        raise MeshParameterError("cell counts must be integers")
    if nx < 1 or ny < 1:
        raise MeshParameterError("cell counts must be at least 1")

    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    gx, gy = np.meshgrid(xs, ys)
    vertices = np.column_stack([gx.ravel(), gy.ravel()])

    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny))
    ix = ix.ravel()
    iy = iy.ravel()
    v00 = iy * (nx + 1) + ix
    v10 = v00 + 1
    v01 = v00 + (nx + 1)
    v11 = v01 + 1

    tris = np.empty((2 * nx * ny, 3), dtype=np.int64)
    tris[0::2] = np.column_stack([v00, v10, v11])  # lower-right triangle
    tris[1::2] = np.column_stack([v00, v11, v01])  # upper-left triangle
    return TriMesh(lx=float(lx), ly=float(ly), nx=int(nx), ny=int(ny),
                   vertices=vertices, triangles=tris)


# Boxes of at most this many vertices are not cut further.
DISSECTION_LEAF = 4


def bisect(xs: range, ys: range) -> tuple[tuple[range, range], ...]:
    """Cut the box xs x ys of grid vertices at the middle row or column of
    its longer side: (first half, second half, separator), each a box.
    With up-right diagonals a vertex couples only to vertices at most one
    row and one column away, so no P1 entry joins the two halves."""
    if len(xs) >= len(ys):
        mid = xs[len(xs) // 2]
        return (range(xs.start, mid), ys), (range(mid + 1, xs.stop), ys), (range(mid, mid + 1), ys)
    mid = ys[len(ys) // 2]
    return (xs, range(ys.start, mid)), (xs, range(mid + 1, ys.stop)), (xs, range(mid, mid + 1))


@cache
def nested_dissection_order(nx: int, ny: int) -> np.ndarray:
    """Nested-dissection order of the (nx+1) x (ny+1) vertex grid: each box
    is cut by bisect, and its two halves come first, each ordered the same
    way, then the separator (George, SIAM J. Numer. Anal. 10, 1973). Boxes
    of at most DISSECTION_LEAF vertices keep row-major order. Entry k is
    the vertex eliminated k-th; the array is read-only."""

    def boxes(xs: range, ys: range):
        if len(xs) * len(ys) <= DISSECTION_LEAF:
            yield xs, ys
        else:
            first, second, separator = bisect(xs, ys)
            yield from boxes(*first)
            yield from boxes(*second)
            yield separator

    order = np.concatenate(
        [(np.arange(ys.start, ys.stop)[:, None] * (nx + 1) + np.arange(xs.start, xs.stop)).ravel()
         for xs, ys in boxes(range(nx + 1), range(ny + 1))]
    )
    order.flags.writeable = False
    return order


@dataclass(frozen=True)
class ObservationSet:
    """Measurement points strictly inside the domain."""

    points: np.ndarray
    lx: float
    ly: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise PointLocationError("points must be an (n, 2) array")
        inside_x = (pts[:, 0] > 0.0) & (pts[:, 0] < self.lx)
        inside_y = (pts[:, 1] > 0.0) & (pts[:, 1] < self.ly)
        if not np.all(inside_x & inside_y):
            bad = int(np.argmin(inside_x & inside_y))
            raise PointLocationError(
                f"point {bad} at {tuple(pts[bad])} is not strictly inside "
                f"(0, {self.lx}) x (0, {self.ly})"
            )
        object.__setattr__(self, "points", pts)
        pts.flags.writeable = False

    @property
    def n_obs(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class NodalField:
    """Vertex-valued scalar field on a mesh."""

    mesh: TriMesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.mesh.n_vertices,):
            raise ValueError("field length must equal the vertex count")
        object.__setattr__(self, "values", vals)
        vals.flags.writeable = False
