import re
import warnings

import numpy as np
import pytest

from oracles import (
    HctScalarField,
    eval_hct_loop,
    eval_on_parent_edge,
    hct_edge_trace,
    hct_elements,
    interpolate,
    jittered_mesh,
    random_triangle,
)
from plate_dpg import parts, quadrature
from plate_dpg.dpg import EDGE_DEGREE, ElementKernel
from plate_dpg.hct import (
    N_DOFS,
    build_hct_element,
    eval_hct,
    eval_on_parent_edges,
)
from plate_dpg.mesh import mesh_at_level, unit_square_initial
from plate_dpg.testspace import BAD_TRIANGLE

REF = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
# the rank error of the unit right triangle at an offset of 1e6; the
# null-space dimension found depends on the SVD's rounding
FAR_OFF_RANK = (r"HCT constraints of a triangle have a \d+-dim null space, not 9 \(largest "
                r"vertex coordinate / diameter = 7\.07e\+05\): the triangle is too thin, or "
                r"too far from the origin for its size; translate or refine the mesh")
# a triangle that passes the triangle gate, and whose HCT subtriangle map is singular
SINGULAR_SUB = [[-30194667564586.93, -30194667564586.91], [-30194667564586.93, -30194667564586.92],
                [-30194667564586.906, -30194667564586.92]]


def interior_points(coords, n, seed):
    rng = np.random.default_rng(seed)
    lam = rng.dirichlet((2.0, 2.0, 2.0), size=n)
    return lam @ coords


def dofs_of(fun, grad, coords):
    out = np.empty(9)
    for v in range(3):
        x, y = coords[v]
        g = grad(x, y)
        out[3 * v : 3 * v + 3] = (fun(x, y), g[0], g[1])
    return out


def test_nodal_duality():
    element = build_hct_element(random_triangle(0))
    mat = np.empty((9, 9))
    for v in range(3):
        val, grad, _ = eval_hct(element, element.coords[v : v + 1])
        mat[3 * v] = val[0]
        mat[3 * v + 1] = grad[0, :, 0]
        mat[3 * v + 2] = grad[0, :, 1]
    assert np.abs(mat - np.eye(9)).max() < 1e-11


def test_constant_reproduction():
    coords = random_triangle(1)
    element = build_hct_element(coords)
    dofs = dofs_of(lambda x, y: 1.0, lambda x, y: (0.0, 0.0), coords)
    pts = interior_points(coords, 10, seed=2)
    val, grad, hess = eval_hct(element, pts, dofs)
    assert np.abs(val - 1.0).max() < 1e-12
    assert np.abs(grad).max() < 1e-11
    assert np.abs(hess).max() < 1e-10


def test_quadratic_reproduction():
    element = build_hct_element(REF)
    dofs = dofs_of(lambda x, y: x * x, lambda x, y: (2.0 * x, 0.0), REF)
    pts = interior_points(REF, 10, seed=3)
    val, grad, hess = eval_hct(element, pts, dofs)
    assert np.abs(val - pts[:, 0] ** 2).max() < 1e-11
    assert np.abs(grad[:, 0] - 2.0 * pts[:, 0]).max() < 1e-11
    assert np.abs(grad[:, 1]).max() < 1e-11
    # the hessian of the interpolant is the constant (2, 0, 0)
    assert np.abs(hess - [2.0, 0.0, 0.0]).max() < 1e-10


def test_quadratic_value_at_barycenter():
    element = build_hct_element(REF)
    dofs = dofs_of(lambda x, y: x * x, lambda x, y: (2.0 * x, 0.0), REF)
    val, grad, _ = eval_hct(element, np.array([[1.0 / 3.0, 1.0 / 3.0]]), dofs)
    assert abs(val[0] - 1.0 / 9.0) < 1e-12
    assert np.abs(grad[0] - [2.0 / 3.0, 0.0]).max() < 1e-12


def test_general_quadratic_on_random_triangle():
    coords = random_triangle(4)
    element = build_hct_element(coords)

    def q(x, y):
        return 0.3 * x * x - 1.1 * x * y + 0.7 * y * y + 0.5 * x - 0.2 * y + 0.9

    def gq(x, y):
        return (0.6 * x - 1.1 * y + 0.5, -1.1 * x + 1.4 * y - 0.2)

    dofs = dofs_of(q, gq, coords)
    pts = interior_points(coords, 10, seed=5)
    val, grad, hess = eval_hct(element, pts, dofs)
    assert np.abs(val - q(pts[:, 0], pts[:, 1])).max() < 1e-11
    gx, gy = gq(pts[:, 0], pts[:, 1])
    assert np.abs(grad - np.stack([gx, gy], axis=1)).max() < 1e-10
    assert np.abs(hess - [0.6, -1.1, 1.4]).max() < 1e-9


def test_cubic_reproduction_fails():
    # quadratic reproduction is sharp for the reduced element; a generic
    # cubic must show a visible interpolation error or the tests above
    # prove nothing
    element = build_hct_element(REF)
    dofs = dofs_of(lambda x, y: x**3, lambda x, y: (3.0 * x * x, 0.0), REF)
    pts = interior_points(REF, 20, seed=6)
    val, _, _ = eval_hct(element, pts, dofs)
    assert np.abs(val - pts[:, 0] ** 3).max() > 1e-6


def test_edge_trace_constant():
    element = build_hct_element(random_triangle(7))
    dofs = dofs_of(lambda x, y: 1.0, lambda x, y: (0.0, 0.0), element.coords)
    s = np.linspace(0.0, 1.0, 7)
    vals, grads = eval_on_parent_edges(element, s)
    for val, grad in zip(vals, grads):
        assert np.abs(val @ dofs - 1.0).max() < 1e-12
        assert np.abs(np.einsum("qjd,j->qd", grad, dofs)).max() < 1e-11


def test_edge_trace_linear_and_quadratic():
    # bottom edge of the unit square, parameterized by s in [0, 1]
    mesh = unit_square_initial()
    coords = mesh.vertices[mesh.triangles[0]]  # (0,0), (1,0), (.5,.5); edge 0 is y = 0
    element = build_hct_element(coords)
    s = np.linspace(0.0, 1.0, 9)

    dofs = dofs_of(lambda x, y: x, lambda x, y: (1.0, 0.0), coords)
    val = eval_on_parent_edges(element, s)[0][0]
    assert np.abs(val @ dofs - s).max() < 1e-12

    dofs = dofs_of(lambda x, y: x * x, lambda x, y: (2.0 * x, 0.0), coords)
    val, grad = (a[0] for a in eval_on_parent_edges(element, s))
    assert np.abs(val @ dofs - s * s).max() < 1e-11
    tang = np.einsum("qjd,j->qd", grad, dofs)[:, 0]  # d/ds = d/dx here
    assert np.abs(tang - 2.0 * s).max() < 1e-10


@pytest.mark.parametrize("name", ["uniform level 2", "jittered level 3", "12 random triangles"])
def test_stacked_edge_traces_match_the_per_edge_oracle(name):
    if name == "12 random triangles":
        coords = np.array([random_triangle(seed) for seed in range(12)])
    else:
        mesh = mesh_at_level(2) if name == "uniform level 2" else jittered_mesh(3, seed=0)
        coords = mesh.vertices[mesh.triangles]
    element = build_hct_element(coords)
    s = quadrature.edge_rule(EDGE_DEGREE).points
    vals, grads = eval_on_parent_edges(element, s)
    for k in range(3):
        val, grad = eval_on_parent_edge(element, k, s)
        for got, want in ((vals[:, k], val), (grads[:, k], grad)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_edge_trace_polynomial_coefficients():
    element = build_hct_element(REF)
    value, grad = hct_edge_trace(element, 0)
    assert value.shape == (9, 4)
    assert grad.shape == (9, 2, 3)
    # dof 3 (value at vertex 1): cubic through (0,0) and (1,1) with zero
    # endpoint slopes is 3s^2 - 2s^3
    assert np.abs(value[3] - [0.0, 0.0, 3.0, -2.0]).max() < 1e-11
    # dof 1 (d/dx at vertex 0) on the edge from (0,0) to (1,0): s(1-s)^2
    assert np.abs(value[1] - [0.0, 1.0, -2.0, 1.0]).max() < 1e-11


def test_normal_derivative_affine_on_edges():
    element = build_hct_element(random_triangle(8))
    rng = np.random.default_rng(9)
    dofs = rng.standard_normal(9)
    for k in range(3):
        p, q = element.coords[k], element.coords[(k + 1) % 3]
        d = q - p
        n = np.array([d[1], -d[0]]) / np.hypot(*d)
        s = np.linspace(0.0, 1.0, 5)
        grad = eval_on_parent_edges(element, s)[1][k]
        dn = np.einsum("qjd,j->qd", grad, dofs) @ n
        # affine in s: second differences of equispaced samples vanish
        second = dn[2:] - 2.0 * dn[1:-1] + dn[:-2]
        assert np.abs(second).max() < 1e-10


def test_global_c1_continuity():
    mesh = mesh_at_level(1)
    elements = hct_elements(mesh)
    rng = np.random.default_rng(10)
    field = HctScalarField(mesh, rng.standard_normal(3 * mesh.num_vertices))
    s = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    interior = [e for e in range(len(mesh.edges))
                if mesh.edge_tris[e, 1] != -1]
    for e in interior:
        ta, tb = mesh.edge_tris[e]
        ka = list(mesh.tri_edges[ta]).index(e)
        kb = list(mesh.tri_edges[tb]).index(e)
        va, ga = (a[ka] for a in eval_on_parent_edges(elements[ta], s))
        vb, gb = (a[kb] for a in eval_on_parent_edges(elements[tb], s))
        da, db = field.local_dofs(ta), field.local_dofs(tb)
        fa, fb = va @ da, vb @ db
        gra = np.einsum("qjd,j->qd", ga, da)
        grb = np.einsum("qjd,j->qd", gb, db)
        # the neighbors traverse the shared edge in opposite directions
        assert np.abs(fa - fb[::-1]).max() < 1e-10
        assert np.abs(gra - grb[::-1]).max() < 1e-10


def test_interpolate_smooth_function():
    mesh = mesh_at_level(1)
    elements = hct_elements(mesh)
    field = interpolate(mesh, lambda x, y: x * y, lambda x, y: (y, x))
    pts = np.array([[0.3, 0.4]])
    for ti in range(mesh.num_triangles):
        coords = mesh.vertices[mesh.triangles[ti]]
        c = coords.mean(axis=0, keepdims=True)
        val, grad, _ = field.eval(ti, elements, c)
        assert abs(val[0] - c[0, 0] * c[0, 1]) < 1e-11
        assert np.abs(grad[0] - [c[0, 1], c[0, 0]]).max() < 1e-10


@pytest.mark.parametrize("seed", range(12))
def test_points_are_evaluated_on_the_subtriangle_the_loop_picked(seed):
    # the vertices, the three internal edges (where two subtriangles tie),
    # the centre and 200 seeded points; the broken Hessians differ between
    # subtriangles, so another pick shows in the bytes
    coords = random_triangle(seed)
    center = coords.mean(axis=0, keepdims=True)
    edges = quadrature.segment_points(coords, center, np.linspace(0.0, 1.0, 9)).reshape(-1, 2)
    pts = np.concatenate([coords, edges, center, interior_points(coords, 200, seed)])
    element = build_hct_element(coords)
    for got, want in zip(eval_hct(element, pts), eval_hct_loop(element, pts)):
        assert got.tobytes() == want.tobytes()


def test_rejects_degenerate_triangle():
    bad = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="^element 0: triangle must be CCW and non-degenerate$"):
        build_hct_element(bad)
    # in a stack, the first bad triangle is named, after the offset `first`
    with pytest.raises(ValueError, match="^element 12: triangle must be CCW and non-degenerate$"):
        build_hct_element(np.array([REF, REF + 1.0, bad, bad]), first=10)


def test_far_off_triangle_names_the_lost_rank():
    # the unit right triangle builds at an offset of 1e5; at 1e6 its constraint
    # rows lose the digits of its coordinates, which ended in "triangle must be
    # CCW and non-degenerate"
    assert build_hct_element(REF + 1e5).coeffs.shape == (N_DOFS, 3, 10)
    with pytest.raises(ValueError) as err:
        build_hct_element(REF + 1e6)
    assert re.fullmatch(f"element 0: {FAR_OFF_RANK}", str(err.value))
    with pytest.raises(ValueError) as err:
        ElementKernel([REF + 1e6])
    assert re.fullmatch(f"element 0: {FAR_OFF_RANK}", str(err.value))


@pytest.mark.parametrize("element", [0, 63])
@pytest.mark.parametrize("tri, message", [(REF + 1e6, FAR_OFF_RANK), (SINGULAR_SUB, BAD_TRIANGLE)],
                         ids=["far off", "singular subtriangle"])
def test_hct_failures_name_their_element_in_either_half(tri, message, element):
    # both errors named no element; element 63 is in the last of the four
    # chunks of a level-2 mesh, which the forked half builds on two cores
    mesh = mesh_at_level(2)
    coords = mesh.vertices[mesh.triangles]
    coords[element] = tri
    with pytest.raises(ValueError) as err, warnings.catch_warnings():
        warnings.simplefilter("error")
        ElementKernel(coords)
    assert re.fullmatch(f"element {element}: {message}", str(err.value))
    if element == 63 and parts.part_count() == 2:
        assert "raised in the forked half of a chunk loop" in err.value.__notes__[0]


def test_dof_vector_shape_checked():
    mesh = unit_square_initial()
    with pytest.raises(ValueError):
        HctScalarField(mesh, np.zeros(7))
