import io
import warnings

import numpy as np
import pytest

from oracles import edge_outward_normal, jittered_mesh, refine_uniform_loop
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


def test_refinement_deterministic():
    a = mesh_at_level(2)
    b = mesh_at_level(2)
    assert np.array_equal(a.triangles, b.triangles)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.edges, b.edges)


def test_refinement_has_the_bits_of_the_child_loop():
    meshes = [unit_square_initial()]
    for _ in range(6):
        meshes.append(refine_uniform(meshes[-1]))
    for mesh in meshes + [jittered_mesh(3, 0)]:
        fine = refine_uniform(mesh)
        vertices, children = refine_uniform_loop(mesh)
        assert fine.level == mesh.level + 1
        for got, want in ((fine.vertices, vertices), (fine.triangles, children)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_mesh_owns_copies_of_its_arrays():
    # the mesh once kept float64 and int64 arrays themselves, and an edit of
    # them made its triangle 0 clockwise after the checks
    base = unit_square_initial()
    v, t = base.vertices.copy(), base.triangles.copy()
    m = Mesh(v, t)
    v[4] = (0.9, 0.1)
    t[0] = [0, 4, 1]
    assert np.array_equal(m.vertices, base.vertices)
    assert np.array_equal(m.triangles, base.triangles)


def test_rejects_clockwise_triangle():
    with pytest.raises(ValueError, match="^element 0: triangle must be CCW and non-degenerate$"):
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
    ([[0.0, 0.0], [1.0, 0.0], [0.0, np.nan]], [[0, 1, 2]],
     r"vertices must be finite and at most 1.68e\+153 in magnitude"),
    ([[0.0, 0.0, 0.0]] * 3, [[0, 1, 2]], r"vertices must have shape \(nv, 2\), not \(3, 3\)"),
    # an unpacking ValueError from the edge loop before
    (TRIANGLE, [[0, 1]], r"triangles must have shape \(nt, 3\), not \(1, 2\)"),
    # an IndexError from the boundary tags before
    (TRIANGLE, np.zeros((0, 3), dtype=np.int64), "a mesh needs at least one triangle"),
    # the triangle [0, 1, 2] before, by a cast to int64
    (TRIANGLE, [[0, 1.7, 2]], "vertex indices must be integers, not float64"),
    (TRIANGLE, [["0", "1", "2"]], "vertex indices must be integers, not <U1"),
    # built before, with edge 0-1 counted as interior, though both
    # triangles lie on one side of it
    ([[0.0, 0.0], [1.0, 0.0], [0.2, 1.0], [0.8, 1.0]], [[0, 1, 2], [0, 1, 3]],
     "triangles 0 and 1 overlap: both traverse edge 0-1 in one direction"),
    # signed_areas warned "overflow encountered in multiply" before, and the
    # mesh was built with an infinite area
    ([[0, 0], [1e200, 0], [0, 1e200]], [[0, 1, 2]],
     r"vertices must be finite and at most 1.68e\+153 in magnitude"),
    # a float mesh before, by a cast to float
    ([["0", "0"], ["1", "0"], ["0", "1"]], [[0, 1, 2]],
     "vertices must be integers or floats, not <U1"),
    # checked before the cast, which warned of an overflow
    (np.array([[0, 0], [1, 0], [0, np.longdouble("1e4000")]], dtype=np.longdouble), [[0, 1, 2]],
     r"vertices must be finite and at most 1.68e\+153 in magnitude"),
    # built before, and its MeshKernels ended in a bare "Singular matrix": its
    # Jacobian is > 0, and its barycentric map singular in floating point
    ([[3242.9574275224554, -5674.61689617546], [3242.957427522455, -5674.616896175461],
      [3242.957427522456, -5674.616896175462]], [[0, 1, 2]],
     "element 0: triangle must be CCW and non-degenerate"),
    # the second triangle is clockwise
    ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [[0, 1, 2], [1, 2, 3]],
     "element 1: triangle must be CCW and non-degenerate"),
])
def test_rejects_arrays_that_are_not_a_mesh(vertices, triangles, message):
    with pytest.raises(ValueError, match=f"^{message}$"), warnings.catch_warnings():
        warnings.simplefilter("error")
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
