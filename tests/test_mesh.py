import io

import numpy as np
import pytest

from oracles import edge_outward_normal
from plate_dpg import mesh as meshmod
from plate_dpg.mesh import (
    Mesh,
    mesh_at_level,
    refine_uniform,
    signed_areas,
    unit_square_initial,
    write_mesh_text,
)


def test_initial_mesh_counts():
    m = unit_square_initial()
    assert m.num_triangles == 4
    assert m.num_vertices == 5


def test_initial_mesh_areas():
    m = unit_square_initial()
    areas = signed_areas(m)
    assert np.allclose(areas, 0.25, rtol=0, atol=1e-15)
    assert abs(areas.sum() - 1.0) < 1e-15


def test_refine_counts():
    m = refine_uniform(unit_square_initial())
    assert m.num_triangles == 16
    # 5 old vertices plus one midpoint per parent edge
    assert m.num_vertices == 13
    assert m.level == 1


def test_refine_preserves_area():
    m = unit_square_initial()
    for _ in range(3):
        m = refine_uniform(m)
        assert abs(signed_areas(m).sum() - 1.0) < 1e-14


def test_triangle_count_growth():
    for k in range(4):
        m = mesh_at_level(k)
        assert m.num_triangles == 4 * 4**k


def test_interior_edges_have_two_neighbors():
    m = mesh_at_level(2)
    interior = np.setdiff1d(np.arange(len(m.edges)), m.boundary_edges)
    assert np.all(m.edge_tris[interior] >= 0)
    assert np.all(m.edge_tris[m.boundary_edges, 1] == -1)


def test_bottom_edge_normal():
    m = unit_square_initial()
    # triangle 0 = (0, 1, 4); local edge 0 runs along y = 0
    n = edge_outward_normal(m, 0, 0)
    assert np.allclose(n, (0.0, -1.0), atol=1e-15)


def test_hypotenuse_normal():
    tri = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
               np.array([[0, 1, 2]]))
    n = edge_outward_normal(tri, 0, 1)
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(n, (r, r), atol=1e-14)


def test_normals_unit_length():
    m = mesh_at_level(1)
    for ti in range(m.num_triangles):
        for k in range(3):
            n = edge_outward_normal(m, ti, k)
            assert abs(np.hypot(n[0], n[1]) - 1.0) < 1e-14


def test_normals_close_up():
    # length-weighted outward normals of a triangle sum to zero
    m = mesh_at_level(2)
    for ti in range(m.num_triangles):
        total = np.zeros(2)
        coords = m.vertices[m.triangles[ti]]
        for k in range(3):
            d = coords[(k + 1) % 3] - coords[k]
            total += np.hypot(*d) * edge_outward_normal(m, ti, k)
        assert np.abs(total).max() < 1e-13


def test_boundary_sides_complete():
    # level k splits each side of the square into 2**k boundary edges
    m = mesh_at_level(2)
    sides = [m.boundary_side[int(e)] for e in m.boundary_edges]
    for tag in (meshmod.BOTTOM, meshmod.RIGHT, meshmod.TOP, meshmod.LEFT):
        assert sides.count(tag) == 4


def test_refinement_deterministic():
    a = mesh_at_level(2)
    b = mesh_at_level(2)
    assert np.array_equal(a.triangles, b.triangles)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.edges, b.edges)


def test_rejects_clockwise_triangle():
    with pytest.raises(ValueError):
        Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
             np.array([[0, 2, 1]]))


def test_rejects_overshared_edge():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [2.0, 0.5]])
    tris = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    with pytest.raises(ValueError):
        Mesh(verts, tris)


TRIANGLE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("vertices, triangles, message", [
    # numpy would wrap -1 to the last vertex
    (TRIANGLE, [[0, 1, -1]], r"vertex index -1 is outside \[0, 3\)"),
    # an IndexError from the edge loop before
    (TRIANGLE, [[0, 1, 3]], r"vertex index 3 is outside \[0, 3\)"),
    ([[0.0, 0.0], [1.0, 0.0], [0.0, np.nan]], [[0, 1, 2]], "vertices must be finite"),
    ([[0.0, 0.0, 0.0]] * 3, [[0, 1, 2]], r"vertices must have shape \(nv, 2\), not \(3, 3\)"),
    # an unpacking ValueError from the edge loop before
    (TRIANGLE, [[0, 1]], r"triangles must have shape \(nt, 3\), not \(1, 2\)"),
    # an IndexError from the boundary tags before
    (TRIANGLE, np.zeros((0, 3), dtype=np.int64), "a mesh needs at least one triangle"),
])
def test_rejects_arrays_that_are_not_a_mesh(vertices, triangles, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Mesh(np.array(vertices), np.array(triangles))


def test_mesh_text_dump():
    m = unit_square_initial()
    buf = io.StringIO()
    write_mesh_text(m, buf)
    lines = buf.getvalue().strip().split("\n")
    assert len(lines) == 9
    assert lines[0] == "v 0.0 0.0"
    assert lines[4] == "v 0.5 0.5"
    assert lines[5] == "t 0 1 4"
    # the dump round-trips to an identical mesh
    vs, ts = [], []
    for line in lines:
        parts = line.split()
        if parts[0] == "v":
            vs.append([float(parts[1]), float(parts[2])])
        else:
            ts.append([int(parts[1]), int(parts[2]), int(parts[3])])
    again = Mesh(np.array(vs), np.array(ts))
    assert np.array_equal(again.triangles, m.triangles)
    assert np.array_equal(again.vertices, m.vertices)
