import math
import re
import warnings

import numpy as np
import pytest

from plate_dpg import quadrature
from plate_dpg.dpg import ElementKernel
from plate_dpg.mesh import mesh_at_level
from plate_dpg.testspace import (
    BAD_TRIANGLE,
    DEGREE,
    N_SCALAR,
    BarycentricMap,
    eval_scalar_basis,
    triangle_gate,
)

REF = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def _loop_scalar_basis(coords, pts):
    """Reference: the basis accumulated term by term in a per-function loop."""
    to_lambda = BarycentricMap(coords)
    glam = to_lambda.grad
    lam = to_lambda(pts)
    nq = lam.shape[0]
    nb = N_SCALAR
    # lam powers, pw[m][a] = lam[:, m] ** a
    pw = [[np.ones(nq)] for _ in range(3)]
    for m in range(3):
        for _ in range(DEGREE):
            pw[m].append(pw[m][-1] * lam[:, m])

    multi_indices = [(i, j, DEGREE - i - j)
                     for i in range(DEGREE, -1, -1) for j in range(DEGREE - i, -1, -1)]
    val = np.empty((nq, nb))
    grad = np.zeros((nq, nb, 2))
    hess = np.zeros((nq, nb, 3))
    for b, e in enumerate(multi_indices):
        cmb = math.factorial(DEGREE) // (
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


def fit_coefficients(coords, fun):
    """Coefficients reproducing `fun` exactly, for fun of degree <= DEGREE."""
    pts = random_points(coords, N_SCALAR, seed=42)
    val, _, _ = eval_scalar_basis(BarycentricMap(coords), pts)
    return np.linalg.solve(val, fun(pts[:, 0], pts[:, 1]))


def test_basis_sizes():
    assert (DEGREE, N_SCALAR) == (3, 10)
    pts = random_points(REF, 4, seed=5)
    val, grad, hess = eval_scalar_basis(BarycentricMap(REF), pts)
    assert val.shape == (4, N_SCALAR)
    assert grad.shape == (4, N_SCALAR, 2) and hess.shape == (4, N_SCALAR, 3)


def test_partition_of_unity():
    coords = np.array([[0.1, -0.4], [2.0, 0.3], [0.7, 1.5]])
    pts = random_points(coords, 30, seed=0)
    val, grad, hess = eval_scalar_basis(BarycentricMap(coords), pts)
    assert np.abs(val.sum(axis=1) - 1.0).max() < 1e-13
    assert np.abs(grad.sum(axis=1)).max() < 1e-12
    assert np.abs(hess.sum(axis=1)).max() < 1e-11


def test_constant_reproduction():
    c = fit_coefficients(REF, lambda x, y: np.ones_like(x))
    pts = random_points(REF, 10, seed=1)
    val, grad, hess = eval_scalar_basis(BarycentricMap(REF), pts)
    assert np.abs(val @ c - 1.0).max() < 1e-12
    assert np.abs(np.einsum("qbd,b->qd", grad, c)).max() < 1e-12
    assert np.abs(np.einsum("qbd,b->qd", hess, c)).max() < 1e-11


def test_linear_reproduction():
    c = fit_coefficients(REF, lambda x, y: x)
    pts = random_points(REF, 10, seed=2)
    val, grad, _ = eval_scalar_basis(BarycentricMap(REF), pts)
    assert np.abs(val @ c - pts[:, 0]).max() < 1e-13
    g = np.einsum("qbd,b->qd", grad, c)
    assert np.abs(g - [1.0, 0.0]).max() < 1e-12


def test_cubic_hessian():
    c = fit_coefficients(REF, lambda x, y: x**3)
    pts = random_points(REF, 10, seed=3)
    _, _, hess = eval_scalar_basis(BarycentricMap(REF), pts)
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
    val, _, _ = eval_scalar_basis(BarycentricMap(coords), pts)
    assert np.abs(val @ c - q(pts[:, 0], pts[:, 1])).max() < 1e-11


def test_derivatives_match_finite_differences():
    coords = np.array([[0.0, 0.0], [1.1, 0.2], [0.3, 0.9]])
    pts = random_points(coords, 5, seed=4)
    h = 1e-6
    bary = BarycentricMap(coords)
    val, grad, hess = eval_scalar_basis(bary, pts)
    vxp, _, _ = eval_scalar_basis(bary, pts + [h, 0.0])
    vxm, _, _ = eval_scalar_basis(bary, pts - [h, 0.0])
    vyp, _, _ = eval_scalar_basis(bary, pts + [0.0, h])
    vym, _, _ = eval_scalar_basis(bary, pts - [0.0, h])
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
            quadrature.map_to_triangles(vol, coords[None])[0][0],
            quadrature.map_to_edge(edge, coords[1], coords[2])[0],
            lam @ coords,  # inside and outside the triangle
        ]
        for pts in point_sets:
            new = eval_scalar_basis(BarycentricMap(coords), pts)
            ref = _loop_scalar_basis(coords, pts)
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
        tables = eval_scalar_basis(BarycentricMap(triangles), pts)
        for ti, coords in enumerate(triangles):
            for group in np.ndindex(pts.shape[1:-2]):
                ref = _loop_scalar_basis(coords, pts[(ti,) + group])
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
        (BarycentricMap(triangles[0]), points(triangles[0], (7,))),
        (BarycentricMap(triangles), points(triangles, (7,))),
        (BarycentricMap(subs), points(subs, (2, 4))),
    ]
    assert cases[2][1].shape == (2, 3, 2, 4, 2)
    for bary, pts in cases:
        full = eval_scalar_basis(bary, pts)
        for order in (0, 1, 2):
            lean = eval_scalar_basis(bary, pts, order=order)
            assert len(lean) == 3
            for a, b in zip(lean[: order + 1], full):
                assert a.shape == b.shape and a.flags.c_contiguous
                assert np.array_equal(a, b)
                assert a.tobytes() == b.tobytes()
            assert all(a is None for a in lean[order + 1:])


# a Jacobian > 0, and a barycentric map that is singular in floating point
SINGULAR_MAP = [[3242.9574275224554, -5674.61689617546], [3242.957427522455, -5674.616896175461],
                [3242.957427522456, -5674.616896175462]]


def test_the_gate_names_the_first_bad_triangle_and_returns_the_map():
    good = np.array([REF, REF + 1.0, 2.0 * REF])
    bary, same = triangle_gate(good, 5), BarycentricMap(good)
    assert bary.grad.tobytes() == same.grad.tobytes()
    assert bary(good).tobytes() == same(good).tobytes()
    assert triangle_gate(np.empty((0, 3, 2)), 5).grad.shape == (0, 3, 2)
    # whichever check a later triangle fails, the first bad one is named
    for bad in ([[0.0, 0.0], [1.0, 0.0], [np.nan, 1.0]], REF[[0, 2, 1]], SINGULAR_MAP,
                [[0.0, 0.0], [1.0, 0.0], [1e12, 1e12]]):
        for later in ([[0.0, 0.0], [np.inf, 0.0], [0.0, 1.0]], REF[[1, 0, 2]], SINGULAR_MAP):
            with pytest.raises(ValueError, match=f"^element 6: {BAD_TRIANGLE}$"), \
                    warnings.catch_warnings():
                warnings.simplefilter("error")
                triangle_gate(np.array([REF, bad, later, REF]), 5)


def probe_triangles(exponents=np.arange(4, 153, 2), n=100, seed=0):
    """Triangles at the limits of the triangle gate and of the HCT set-up.

    For s = 10**e, e in `exponents`: (0, 0), (1, 0), (s, s);
    (0, 0), (s, 0), (s/2, 1); the unit right triangle at (s, s); and the
    one of size 1e-10 s there.  Then `n` seeded far-off triangles of size
    1e-3 to 1e3 at offsets up to 1e150, `n` seeded slivers, the singular
    map, and one whose HCT subtriangle map is singular: 502 by default.
    """
    tris = []
    for s in 10.0 ** np.asarray(exponents):
        tris += [[[0, 0], [1, 0], [s, s]], [[0, 0], [s, 0], [s / 2, 1]],
                 [[s, s], [s + 1, s], [s, s + 1]],
                 [[s, s], [s * (1 + 1e-10), s], [s, s * (1 + 1e-10)]]]
    rng = np.random.default_rng(seed)
    for _ in range(n):
        offset = 10.0 ** rng.uniform(0, 150) * rng.choice([-1, 1], 2)
        tris.append(offset + rng.uniform(-1, 1, (3, 2)) * 10.0 ** rng.uniform(-3, 3))
        # the third vertex at a height of 1e-16 to 1e-2 times the length over the first edge
        p, d = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2) * 10.0 ** rng.uniform(0, 8)
        height = 10.0 ** rng.uniform(-16, -2) * np.array([-d[1], d[0]])
        tris.append([p, p + d, p + rng.uniform(0, 1) * d + height])
    tris += [SINGULAR_MAP, [[-30194667564586.93, -30194667564586.91],
                            [-30194667564586.93, -30194667564586.92],
                            [-30194667564586.906, -30194667564586.92]]]
    return np.array(tris, dtype=float)


def probe_outcome(tri):
    """How `ElementKernel` ends on one triangle: built, or one of three one-line errors.

    Anything else, a LinAlgError or a warning among them, is raised.
    """
    rank = (r"HCT constraints of a triangle have a \d+-dim null space, not 9 \(largest "
            r"vertex coordinate / diameter = .*\): the triangle is too thin, or too far "
            r"from the origin for its size; translate or refine the mesh")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ElementKernel([tri])
        except ValueError as err:
            if str(err) == f"element 0: {BAD_TRIANGLE}":
                return "gate"
            if str(err) == BAD_TRIANGLE:
                return "HCT subtriangle"
            assert re.fullmatch(rank, str(err)), str(err)
            return "HCT rank"
    return "built"


def test_every_probe_triangle_builds_or_ends_in_one_line():
    # a bad triangle ends in the gate's line, or in one of the two checks of
    # the HCT set-up that the gate cannot make
    outcomes = [probe_outcome(tri) for tri in probe_triangles()]
    assert len(outcomes) == 502
    assert set(outcomes) == {"built", "gate", "HCT subtriangle", "HCT rank"}
