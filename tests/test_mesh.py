import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kktprec import ObservationSet, assemble_mass, assemble_stiffness_nitsche, build_mesh
from kktprec.mesh import (
    DISSECTION_LEAF,
    MeshParameterError,
    PointLocationError,
    bisect,
    nested_dissection_order,
)


def triangle_areas(mesh):
    p = mesh.vertices[mesh.triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def test_unit_square_single_cell():
    mesh = build_mesh(1.0, 1.0, 1, 1)
    assert mesh.n_vertices == 4
    assert mesh.n_triangles == 2
    assert np.isclose(triangle_areas(mesh).sum(), 1.0)


def test_benchmark_mesh_counts():
    mesh = build_mesh(1.45, 1.0, 29, 20)
    assert mesh.n_vertices == 630
    assert mesh.n_triangles == 1160
    assert np.isclose(triangle_areas(mesh).sum(), 1.45)


def test_coarse_benchmark_mesh_size():
    # 36x25 cells: 1800 triangles with longest edge near 5.7e-2
    mesh = build_mesh(1.45, 1.0, 36, 25)
    assert mesh.n_triangles == 1800
    assert abs(mesh.h - 5.7e-2) < 5e-4
    assert np.isclose(triangle_areas(mesh).sum(), 1.45)


def test_triangle_orientation_and_area():
    mesh = build_mesh(2.0, 1.0, 4, 2)
    areas = triangle_areas(mesh)
    expected = mesh.dx * mesh.dy / 2.0
    assert np.all(areas > 0)  # counterclockwise
    assert np.allclose(areas, expected)


def test_vertex_grid_layout():
    mesh = build_mesh(1.0, 1.0, 3, 2)
    k = mesh.vertex_index(2, 1)
    assert np.allclose(mesh.vertices[k], [2.0 / 3.0, 0.5])


def test_boundary_vertex_count():
    mesh = build_mesh(1.0, 1.0, 4, 3)
    expected = 2 * (4 + 1) + 2 * (3 + 1) - 4
    assert mesh.boundary_vertices().size == expected


def test_mesh_rejects_bad_parameters():
    with pytest.raises(MeshParameterError):
        build_mesh(0.0, 1.0, 2, 2)
    with pytest.raises(MeshParameterError):
        build_mesh(1.0, 1.0, 0, 2)
    with pytest.raises(MeshParameterError):
        build_mesh(1.0, -1.0, 2, 2)


def test_observation_set_strictly_inside():
    pts = np.array([[0.5, 0.5], [0.1, 0.9]])
    obs = ObservationSet(points=pts, lx=1.0, ly=1.0)
    assert obs.points.shape == (2, 2)


def test_observation_set_rejects_boundary_point():
    with pytest.raises(PointLocationError):
        ObservationSet(points=np.array([[0.0, 0.5]]), lx=1.0, ly=1.0)
    with pytest.raises(PointLocationError):
        ObservationSet(points=np.array([[0.5, 1.0]]), lx=1.0, ly=1.0)


def test_observation_set_rejects_bad_shape():
    with pytest.raises(PointLocationError):
        ObservationSet(points=np.array([0.5, 0.5]), lx=1.0, ly=1.0)


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(1, 12), ny=st.integers(1, 12),
       lx=st.floats(0.1, 10.0), ly=st.floats(0.1, 10.0))
def test_mesh_invariants(nx, ny, lx, ly):
    mesh = build_mesh(lx, ly, nx, ny)
    assert mesh.n_vertices == (nx + 1) * (ny + 1)
    assert mesh.n_triangles == 2 * nx * ny
    areas = triangle_areas(mesh)
    assert np.all(areas > 0)
    assert np.allclose(areas, lx / nx * (ly / ny) / 2.0, rtol=1e-12)
    assert np.isclose(areas.sum(), lx * ly, rtol=1e-10)


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(1, 40), ny=st.integers(1, 40))
def test_nested_dissection_separates_every_bisection(nx, ny):
    order = nested_dissection_order(nx, ny)
    n = (nx + 1) * (ny + 1)
    assert order.dtype.kind == "i"
    assert np.array_equal(np.sort(order), np.arange(n))
    mesh = build_mesh(1.45, 1.0, nx, ny)
    # the stiffness pattern, and the mass pattern, which adds the diagonal
    # edges whose stiffness entries vanish on this mesh
    pattern = (abs(assemble_stiffness_nitsche(mesh)) + assemble_mass(mesh)).tocsr()
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)

    def vertices(xs, ys):
        return (np.arange(ys.start, ys.stop)[:, None] * (nx + 1) + np.arange(xs.start, xs.stop)).ravel()

    def check(xs, ys, start):
        box = vertices(xs, ys)
        # each box is one contiguous run of the order
        assert np.array_equal(np.sort(position[box]), np.arange(start, start + box.size))
        if box.size <= DISSECTION_LEAF:
            return
        first, second, separator = bisect(xs, ys)
        a, b, sep = vertices(*first), vertices(*second), vertices(*separator)
        assert a.size + b.size + sep.size == box.size
        assert pattern[a][:, b].nnz == 0
        assert np.all(position[sep] >= start + a.size + b.size)  # the separator comes last
        check(*first, start)
        check(*second, start + a.size)

    check(range(nx + 1), range(ny + 1), 0)
