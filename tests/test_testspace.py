import math

import numpy as np

from plate_dpg import quadrature
from plate_dpg.mesh import mesh_at_level
from plate_dpg.testspace import BarycentricMap, eval_scalar_basis, scalar_basis_size

REF = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def _loop_scalar_basis(coords, pts, degree):
    """Reference: the basis accumulated term by term in a per-function loop."""
    to_lambda = BarycentricMap(coords)
    glam = to_lambda.grad
    lam = to_lambda(pts)
    nq = lam.shape[0]
    nb = scalar_basis_size(degree)
    # lam powers, pw[m][a] = lam[:, m] ** a
    pw = [[np.ones(nq)] for _ in range(3)]
    for m in range(3):
        for _ in range(degree):
            pw[m].append(pw[m][-1] * lam[:, m])

    multi_indices = [(i, j, degree - i - j)
                     for i in range(degree, -1, -1) for j in range(degree - i, -1, -1)]
    val = np.empty((nq, nb))
    grad = np.zeros((nq, nb, 2))
    hess = np.zeros((nq, nb, 3))
    for b, e in enumerate(multi_indices):
        cmb = math.factorial(degree) // (
            math.factorial(e[0]) * math.factorial(e[1]) * math.factorial(e[2])
        )
        val[:, b] = cmb * pw[0][e[0]] * pw[1][e[1]] * pw[2][e[2]]
        for m in range(3):
            if e[m] == 0:
                continue
            em = list(e)
            em[m] -= 1
            mono = pw[0][em[0]] * pw[1][em[1]] * pw[2][em[2]]
            grad[:, b, 0] += cmb * e[m] * mono * glam[m, 0]
            grad[:, b, 1] += cmb * e[m] * mono * glam[m, 1]
            for n in range(3):
                cnt = em[n]
                if cnt == 0:
                    continue
                emn = list(em)
                emn[n] -= 1
                mono2 = pw[0][emn[0]] * pw[1][emn[1]] * pw[2][emn[2]]
                w = cmb * e[m] * cnt * mono2
                hess[:, b, 0] += w * glam[m, 0] * glam[n, 0]
                hess[:, b, 1] += w * glam[m, 0] * glam[n, 1]
                hess[:, b, 2] += w * glam[m, 1] * glam[n, 1]
    return val, grad, hess


def _dyadic_shapes(level):
    """One triangle per class of equal edge vectors of the uniform mesh."""
    mesh = mesh_at_level(level)
    shapes = {}
    for ti in range(mesh.num_triangles):
        coords = mesh.vertices[mesh.triangles[ti]]
        shapes.setdefault((coords[1:] - coords[0]).tobytes(), coords)
    return list(shapes.values())


def random_points(coords, n, seed):
    rng = np.random.default_rng(seed)
    lam = rng.dirichlet((2.0, 2.0, 2.0), size=n)
    return lam @ coords


def fit_coefficients(coords, fun, degree=3):
    """Coefficients reproducing `fun` exactly, for fun of degree <= `degree`."""
    nb = scalar_basis_size(degree)
    pts = random_points(coords, nb, seed=42)
    val, _, _ = eval_scalar_basis(coords, pts, degree)
    return np.linalg.solve(val, fun(pts[:, 0], pts[:, 1]))


def test_basis_sizes():
    assert scalar_basis_size(2) == 6
    assert scalar_basis_size(3) == 10
    assert scalar_basis_size(5) == 21


def test_partition_of_unity():
    coords = np.array([[0.1, -0.4], [2.0, 0.3], [0.7, 1.5]])
    pts = random_points(coords, 30, seed=0)
    val, grad, hess = eval_scalar_basis(coords, pts, 3)
    assert np.abs(val.sum(axis=1) - 1.0).max() < 1e-13
    assert np.abs(grad.sum(axis=1)).max() < 1e-12
    assert np.abs(hess.sum(axis=1)).max() < 1e-11


def test_constant_reproduction():
    c = fit_coefficients(REF, lambda x, y: np.ones_like(x))
    pts = random_points(REF, 10, seed=1)
    val, grad, hess = eval_scalar_basis(REF, pts, 3)
    assert np.abs(val @ c - 1.0).max() < 1e-12
    assert np.abs(np.einsum("qbd,b->qd", grad, c)).max() < 1e-12
    assert np.abs(np.einsum("qbd,b->qd", hess, c)).max() < 1e-11


def test_linear_reproduction():
    c = fit_coefficients(REF, lambda x, y: x)
    pts = random_points(REF, 10, seed=2)
    val, grad, _ = eval_scalar_basis(REF, pts, 3)
    assert np.abs(val @ c - pts[:, 0]).max() < 1e-13
    g = np.einsum("qbd,b->qd", grad, c)
    assert np.abs(g - [1.0, 0.0]).max() < 1e-12


def test_cubic_hessian():
    c = fit_coefficients(REF, lambda x, y: x**3)
    pts = random_points(REF, 10, seed=3)
    _, _, hess = eval_scalar_basis(REF, pts, 3)
    h = np.einsum("qbd,b->qd", hess, c)
    assert np.abs(h[:, 0] - 6.0 * pts[:, 0]).max() < 1e-12
    assert np.abs(h[:, 1]).max() < 1e-12
    assert np.abs(h[:, 2]).max() < 1e-12


def test_random_cubic_reproduction():
    rng = np.random.default_rng(7)
    coords = np.array([[0.0, 0.1], [1.3, -0.2], [0.4, 1.1]])
    coef = rng.standard_normal(10)

    def q(x, y):
        total = 0.0
        k = 0
        for i in range(4):
            for j in range(4 - i):
                total = total + coef[k] * x**i * y**j
                k += 1
        return total

    c = fit_coefficients(coords, q)
    pts = random_points(coords, 20, seed=8)
    val, _, _ = eval_scalar_basis(coords, pts, 3)
    assert np.abs(val @ c - q(pts[:, 0], pts[:, 1])).max() < 1e-11


def test_derivatives_match_finite_differences():
    coords = np.array([[0.0, 0.0], [1.1, 0.2], [0.3, 0.9]])
    pts = random_points(coords, 5, seed=4)
    h = 1e-6
    val, grad, hess = eval_scalar_basis(coords, pts, 3)
    vxp, _, _ = eval_scalar_basis(coords, pts + [h, 0.0], 3)
    vxm, _, _ = eval_scalar_basis(coords, pts - [h, 0.0], 3)
    vyp, _, _ = eval_scalar_basis(coords, pts + [0.0, h], 3)
    vym, _, _ = eval_scalar_basis(coords, pts - [0.0, h], 3)
    assert np.abs((vxp - vxm) / (2 * h) - grad[:, :, 0]).max() < 1e-8
    assert np.abs((vyp - vym) / (2 * h) - grad[:, :, 1]).max() < 1e-8
    assert np.abs((vxp - 2 * val + vxm) / h**2 - hess[:, :, 0]).max() < 1e-3
    assert np.abs((vyp - 2 * val + vym) / h**2 - hess[:, :, 2]).max() < 1e-3


def test_matches_loop_reference_bit_for_bit():
    rng = np.random.default_rng(11)
    triangles = []
    for scale in (1e-4, 1e-2, 1.0, 10.0):
        for _ in range(3):
            coords = scale * rng.uniform(-1.0, 1.0, (3, 2)) + rng.uniform(-5, 5, 2)
            if np.linalg.det(coords[1:] - coords[0]) < 0:
                coords = coords[[0, 2, 1]]
            triangles.append(coords)
    shapes = _dyadic_shapes(4)
    assert len(shapes) == 12
    triangles += shapes
    vol = quadrature.triangle_rule(14)
    edge = quadrature.edge_rule(8)
    for coords in triangles:
        lam = rng.uniform(-1.0, 1.5, (7, 2))
        lam = np.hstack([lam, 1.0 - lam.sum(axis=1, keepdims=True)])
        point_sets = [
            quadrature.map_to_triangle(vol, coords)[0],
            quadrature.map_to_edge(edge, coords[1], coords[2])[0],
            lam @ coords,  # inside and outside the triangle
        ]
        for pts in point_sets:
            for degree in range(2, 6):
                new = eval_scalar_basis(coords, pts, degree)
                ref = _loop_scalar_basis(coords, pts, degree)
                for a, b in zip(new, ref):
                    assert a.shape == b.shape
                    assert a.flags.c_contiguous
                    assert np.array_equal(a, b)
                    # signs of zeros too
                    assert a.tobytes() == b.tobytes()


def test_barycentric_roundtrip():
    coords = np.array([[0.2, 0.1], [1.0, 0.4], [0.3, 1.2]])
    to_lam = BarycentricMap(coords)
    grad = to_lam.grad
    lam = to_lam(coords)
    assert np.abs(lam - np.eye(3)).max() < 1e-13
    # gradients of the barycentric coordinates sum to zero
    assert np.abs(grad.sum(axis=0)).max() < 1e-13


def test_stacked_tables_match_loop_reference_bit_for_bit():
    # one call on a stack of triangles, with the points of each triangle
    # grouped on an extra axis, gives each triangle the loop's bits
    rng = np.random.default_rng(13)
    triangles = _dyadic_shapes(4)
    for scale in (1e-4, 1e-2, 1.0, 10.0):
        for _ in range(3):
            coords = scale * rng.uniform(-1.0, 1.0, (3, 2)) + rng.uniform(-5, 5, 2)
            if np.linalg.det(coords[1:] - coords[0]) < 0:
                coords = coords[[0, 2, 1]]
            triangles.append(coords)
    triangles = np.array(triangles)
    vol, _ = quadrature.map_to_triangles(quadrature.triangle_rule(14), triangles)
    edge, _ = quadrature.map_to_edge(quadrature.edge_rule(8), triangles,
                                     triangles[:, [1, 2, 0]])
    for pts in (vol, edge):                    # (ne, nq, 2) and (ne, 3, nqe, 2)
        for degree in range(2, 6):
            tables = eval_scalar_basis(BarycentricMap(triangles), pts, degree)
            for ti, coords in enumerate(triangles):
                for group in np.ndindex(pts.shape[1:-2]):
                    ref = _loop_scalar_basis(coords, pts[(ti,) + group], degree)
                    for a, b in zip(tables, ref):
                        assert a.flags.c_contiguous
                        assert a[(ti,) + group].tobytes() == b.tobytes()


def test_lower_orders_are_the_leading_outputs_of_order_2():
    # a single triangle, a stack, and the HCT layout of a stack of
    # subtriangle maps (ne, 3) with points (ne, 3 subs, 2 sides, 4, 2)
    rng = np.random.default_rng(17)
    triangles = []
    for scale in (1e-4, 1.0, 10.0):
        for _ in range(2):
            coords = scale * rng.uniform(-1.0, 1.0, (3, 2)) + rng.uniform(-5, 5, 2)
            if np.linalg.det(coords[1:] - coords[0]) < 0:
                coords = coords[[0, 2, 1]]
            triangles.append(coords)
    triangles = np.array(triangles)

    def points(tri, extra):
        """Points of each triangle of `tri` (..., 3, 2) on the axes `extra` (..., nq)."""
        lam = rng.dirichlet((2.0, 2.0, 2.0), size=tri.shape[:-2] + extra)
        return lam @ tri.reshape(tri.shape[:-2] + (1,) * (len(extra) - 1) + (3, 2))

    subs = triangles.reshape(2, 3, 3, 2)
    cases = [
        (triangles[0], points(triangles[0], (7,))),
        (BarycentricMap(triangles), points(triangles, (7,))),
        (BarycentricMap(subs), points(subs, (2, 4))),
    ]
    assert cases[2][1].shape == (2, 3, 2, 4, 2)
    for tri, pts in cases:
        for degree in range(2, 6):
            full = eval_scalar_basis(tri, pts, degree)
            for order in (0, 1, 2):
                lean = eval_scalar_basis(tri, pts, degree, order=order)
                assert len(lean) == 3
                for a, b in zip(lean[: order + 1], full):
                    assert a.shape == b.shape and a.flags.c_contiguous
                    assert np.array_equal(a, b)
                    assert a.tobytes() == b.tobytes()
                assert all(a is None for a in lean[order + 1:])
