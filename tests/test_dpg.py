"""Element-level checks of the minimum-residual machinery.

The heart of this file is an integration-by-parts identity: for any
smooth quadratic deflection/moment pair with the rotation tied to the
deflection gradient, the ultraweak volume terms plus the assembled
skeleton terms must reproduce the conforming bilinear form against every
test function.  Passing it for random data jointly pins down every sign
and scaling in the volume and trace blocks.
"""

import numpy as np
import pytest

from element_loop import LoopKernel
from oracles import (
    HctScalarField,
    HctTriple,
    hct_elements,
    jittered_mesh,
    random_triangle,
    trace_pair_edge,
    trace_pair_volume,
)
from plate_dpg import dpg, parts, quadrature
from plate_dpg.dpg import (
    ElementKernel,
    ProblemConfig,
    b_field,
    b_trace,
    condense,
    gram,
    load,
    local_residuals,
)
from plate_dpg.hct import eval_hct
from plate_dpg.mesh import mesh_at_level
from plate_dpg.quadrature import map_to_triangles, triangle_rule
from plate_dpg.testspace import DEGREE, N_SCALAR, BarycentricMap, eval_scalar_basis

REF = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def make_kernel(coords):
    """The tables of one triangle, as a one-element stack."""
    return ElementKernel([coords])


def condense_one(G, B, l):
    """`condense` of one element's G, B and l, as a stack of one."""
    _, _, (A,), (b,), _ = condense(G[None], B[None], l[None])
    return A, b


def residual_one(G, B, l, x):
    """`local_residuals` of one element's G, B, l and trial dofs x, as a stack of one."""
    Lp, dinv, *_ = condense(G[None], B[None], l[None])
    return local_residuals(Lp, dinv, B[None], l[None], x[None])[0]


def scalar_coeffs(coords, fun):
    """Coefficients of a degree <= 3 function in the scalar test basis."""
    rng = np.random.default_rng(1234)
    lam = rng.dirichlet((2.0, 2.0, 2.0), size=N_SCALAR)
    pts = lam @ coords
    val, _, _ = eval_scalar_basis(BarycentricMap(coords), pts)
    return np.linalg.solve(val, fun(pts[:, 0], pts[:, 1]))


def component_vector(t, coords, component, fun):
    v = np.zeros(dpg.n_test(t))
    v[dpg.block(component)] = scalar_coeffs(coords, fun)
    return v


def test_config_validation():
    with pytest.raises(ValueError):
        ProblemConfig(t=-0.1)
    with pytest.raises(ValueError):
        ProblemConfig(t=float("nan"))
    with pytest.raises(ValueError):
        ProblemConfig(bc="free")
    with pytest.raises(ValueError):
        ProblemConfig(t=0.5, bc="clamped")
    with pytest.raises(ValueError):
        ProblemConfig(solver="multigrid")
    assert dpg.n_components(ProblemConfig(t=0.0, bc="clamped").t) == 4
    assert dpg.n_components(ProblemConfig(t=1e-3).t) == 6


# ---- the test layout of the element tables


def test_component_layout():
    kernel = make_kernel(REF)
    assert dpg.N_SCALAR == N_SCALAR == 10
    assert kernel.V.shape[-1] == kernel.tv.shape[-1] == dpg.N_SCALAR
    assert dpg.n_test(1.0) == 60
    assert dpg.n_test(0.0) == 40
    assert dpg.n_components(0.5) == 6
    assert dpg.block(2) == slice(20, 30)


def test_degree_bounds():
    # the product of two test functions, the Gram integrand, is integrated
    # exactly by the volume and edge rules, which exist at these degrees
    assert 2 * DEGREE <= dpg.QUAD_DEGREE <= quadrature.MAX_TRIANGLE_DEGREE
    assert 2 * DEGREE <= dpg.EDGE_DEGREE <= quadrature.MAX_EDGE_DEGREE
    kernel = make_kernel(REF)
    assert kernel.vw.shape[-1] == len(quadrature.triangle_rule(dpg.QUAD_DEGREE).weights)
    assert kernel.ew.shape[-1] == len(quadrature.edge_rule(dpg.EDGE_DEGREE).weights)


def test_tables_of_no_triangles_are_rejected():
    # an AttributeError on `vw` before
    with pytest.raises(ValueError, match="^element tables need at least one triangle$"):
        ElementKernel(np.zeros((0, 3, 2)))


# ---- Gram matrix


def test_gram_constant_deflection_test():
    kernel = make_kernel(REF)
    G = gram(kernel, 1.0)[0]
    v = component_vector(1.0, REF, 0, lambda x, y: np.ones_like(x))
    # constant z: only the L2 term survives
    assert abs(v @ G @ v - 0.5) < 1e-13


def test_gram_linear_deflection_test():
    kernel = make_kernel(REF)
    G1 = gram(kernel, 1.0)[0]
    v1 = component_vector(1.0, REF, 0, lambda x, y: x)
    # |x|^2 over the triangle is 1/12; the gradient term adds t * area
    assert abs(v1 @ G1 @ v1 - 7.0 / 12.0) < 1e-13

    G0 = gram(kernel, 0.0)[0]
    v0 = component_vector(0.0, REF, 0, lambda x, y: x)
    assert abs(v0 @ G0 @ v0 - 1.0 / 12.0) < 1e-13


def test_gram_symmetric_positive_definite():
    for seed in range(10):
        kernel = make_kernel(random_triangle(seed))
        for t in (0.0, 1e-8, 1e-4, 1.0):
            G = gram(kernel, t)[0]
            assert np.abs(G - G.T).max() == 0.0
            # equilibrated Cholesky must succeed even at cond ~ 1/t
            d = 1.0 / np.sqrt(np.diag(G))
            np.linalg.cholesky(G * d[:, None] * d[None, :])


def test_gram_of_every_chunk_is_exactly_symmetric():
    # the stacked R^T R is one syrk per element, which computes one triangle
    # and copies it into the other, so `gram` returns G as the product gives it
    for mesh in (mesh_at_level(2), jittered_mesh(3, 0)):
        kernels = ElementKernel(mesh.vertices[mesh.triangles])
        for lo in range(0, len(kernels), parts.CHUNK):
            for t in (1e-2, 1e-8, 0.0):
                G = gram(kernels[lo:lo + parts.CHUNK], t)
                assert np.array_equal(G, G.transpose(0, 2, 1))


def test_gram_size_depends_on_thickness():
    kernel = make_kernel(REF)
    assert gram(kernel, 0.5)[0].shape == (60, 60)
    assert gram(kernel, 0.0)[0].shape == (40, 40)


# ---- volume trial-to-test block


def test_b_field_deflection_column_against_divergence_free_test():
    kernel = make_kernel(REF)
    B = b_field(kernel, 0.0, )[0]
    v = component_vector(0.0, REF, 1, lambda x, y: np.ones_like(x))
    assert abs(v @ B[:, 0]) < 1e-14


def test_b_field_deflection_column_against_linear_shear_test():
    kernel = make_kernel(REF)
    B = b_field(kernel, 1.0, )[0]
    v = component_vector(1.0, REF, 4, lambda x, y: x)
    # (u, t div tau) with tau = (x, 0): integral of 1 over the triangle
    assert abs(v @ B[:, 0] - 0.5) < 1e-13


def test_b_field_moment_column_constant_test():
    kernel = make_kernel(REF)
    B = b_field(kernel, 1.0, )[0]
    v = component_vector(1.0, REF, 1, lambda x, y: np.ones_like(x))
    # (M, C^{-1} Theta) with both constant: the element area
    assert abs(v @ B[:, 1] - 0.5) < 1e-13


# ---- skeleton block


def interp_dofs(fun, grad, coords):
    out = np.empty(9)
    for v in range(3):
        x, y = coords[v]
        g = grad(x, y)
        out[3 * v : 3 * v + 3] = (fun(x, y), g[0], g[1])
    return out


def test_b_trace_zero_dofs():
    kernel = make_kernel(REF)
    B = b_trace(kernel, 1.0)[0]
    assert B.shape == (60, 36)
    assert np.abs(B @ np.zeros(36)).max() == 0.0


def test_b_trace_closed_contour_identities():
    kernel = make_kernel(REF)
    qhat = np.zeros(36)
    qhat[0:9] = interp_dofs(lambda x, y: x, lambda x, y: (1.0, 0.0), REF)

    # constant test z = 1 at t = 1: every skeleton term of the deflection
    # trace involves div Theta, tau, or grad z, all zero here
    B = b_trace(kernel, 1.0)[0]
    v = component_vector(1.0, REF, 0, lambda x, y: np.ones_like(x))
    assert abs(v @ (B @ qhat)) < 1e-13

    # constant test Theta = E11 at t = 0: <grad u, Theta n> integrates
    # n_1 around the closed element boundary
    B0 = b_trace(kernel, 0.0)[0]
    v0 = component_vector(0.0, REF, 1, lambda x, y: np.ones_like(x))
    assert abs(v0 @ (B0 @ qhat)) < 1e-13


@pytest.mark.parametrize("t", [0.0, 1e-2, 1.0])
def test_edge_degree_integrates_the_skeleton_exactly(monkeypatch, t):
    # at the test degree 3 the edge integrands have degree 6 or less, so
    # dpg.EDGE_DEGREE = 8 must match the highest edge rule to roundoff
    coords = random_triangle(17)
    B = b_trace(make_kernel(coords), t)[0]
    monkeypatch.setattr(dpg, "EDGE_DEGREE", 21)
    B_ref = b_trace(make_kernel(coords), t)[0]
    assert np.abs(B - B_ref).max() < 1e-13 * np.abs(B_ref).max()


# ---- load functional


def test_load_zero():
    kernel = make_kernel(REF)
    f = np.zeros(kernel.vpts.shape[1])
    assert np.abs(load(kernel, f[None], 1.0)[0]).max() == 0.0


def test_load_constant():
    kernel = make_kernel(REF)
    f = np.ones(kernel.vpts.shape[1])
    l = load(kernel, f[None], 1.0)[0]
    v = component_vector(1.0, REF, 0, lambda x, y: np.ones_like(x))
    assert abs(v @ l + 0.5) < 1e-14
    # the load tests only the deflection component
    w = component_vector(1.0, REF, 1, lambda x, y: x + y)
    assert abs(w @ l) < 1e-14
    for comp in (2, 3, 4, 5):
        assert np.abs(l[dpg.block(comp)]).max() == 0.0


# ---- local normal equations


def test_normal_contribution_zero_b():
    G = np.eye(8)
    B = np.zeros((8, 3))
    l = np.ones(8)
    A, b = condense_one(G, B, l)
    assert np.abs(A).max() == 0.0
    assert np.abs(b).max() == 0.0


def test_normal_contribution_identity_gram():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((12, 5))
    l = rng.standard_normal(12)
    A, b = condense_one(np.eye(12), B, l)
    assert np.abs(A - B.T @ B).max() < 1e-12
    assert np.abs(b - B.T @ l).max() < 1e-12


def test_normal_contribution_dense_oracle():
    rng = np.random.default_rng(4)
    for trial in range(5):
        R = rng.standard_normal((80, 60))
        scale = 10.0 ** rng.uniform(-6, 6, 60)
        G = (R.T @ R + 60.0 * np.eye(60)) * np.outer(scale, scale)
        B = rng.standard_normal((60, 6))
        l = rng.standard_normal(60)
        A, b = condense_one(G, B, l)
        Ginv = np.linalg.inv(G)
        A_ref = B.T @ Ginv @ B
        b_ref = B.T @ Ginv @ l
        assert np.abs(A - A_ref).max() < 1e-10 * np.abs(A_ref).max()
        assert np.abs(b - b_ref).max() < 1e-10 * max(np.abs(b_ref).max(), 1.0)


def test_normal_contribution_on_real_elements():
    cfg = ProblemConfig(t=1e-6)
    for seed in range(3):
        kernel = make_kernel(random_triangle(seed + 20))
        G = gram(kernel, cfg.t)[0]
        B = np.hstack([b_field(kernel, cfg.t)[0], b_trace(kernel, cfg.t)[0]])
        l = np.zeros(60)
        l[:10] = np.random.default_rng(seed).standard_normal(10)
        A, b = condense_one(G, B, l)
        Ginv = np.linalg.inv(G)
        A_ref = B.T @ Ginv @ B
        assert np.abs(A - A_ref).max() < 1e-9 * np.abs(A_ref).max()
        # the normal matrix must be symmetric positive semidefinite
        w = np.linalg.eigvalsh(A)
        assert w.min() > -1e-10 * w.max()


def test_local_residual_cases():
    rng = np.random.default_rng(5)
    G = np.eye(10)
    B = rng.standard_normal((10, 4))
    x = rng.standard_normal(4)
    l = B @ x
    assert residual_one(G, B, l, x) < 1e-13
    assert residual_one(G, B, np.zeros(10), np.zeros(4)) == 0.0
    r = np.zeros(10)
    r[0] = 1.0
    assert abs(residual_one(G, B, r, np.zeros(4)) - 1.0) < 1e-14


def test_gram_invariance_of_normal_equations():
    # rescaling the test basis must not change the normal equations
    rng = np.random.default_rng(6)
    kernel = make_kernel(random_triangle(30))
    t = 1e-4
    G = gram(kernel, t)[0]
    B = np.hstack([b_field(kernel, t, )[0], b_trace(kernel, t)[0]])
    l = rng.standard_normal(60)
    A1, b1 = condense_one(G, B, l)
    s = 10.0 ** rng.uniform(-3, 3, 60)
    S = np.diag(s)
    A2, b2 = condense_one(S @ G @ S, S @ B, s * l)
    assert np.abs(A1 - A2).max() < 1e-9 * np.abs(A1).max()
    assert np.abs(b1 - b2).max() < 1e-9 * max(np.abs(b1).max(), 1.0)


# ---- duality pairings of smooth triples


def test_trace_pairing_skew_symmetry():
    for seed in (0, 1):
        coords = random_triangle(40 + seed)
        a = HctTriple(coords, seed=100 + seed)
        b = HctTriple(coords, seed=200 + seed)
        for t in (0.0, 1e-4, 0.7):
            ab = trace_pair_edge(coords, a, b, t)
            ba = trace_pair_edge(coords, b, a, t)
            scale = max(abs(ab), abs(ba), 1e-30)
            assert abs(ab + ba) < 1e-10 * scale


def test_trace_pairing_volume_equals_edges():
    coords = random_triangle(50)
    a = HctTriple(coords, seed=300)
    b = HctTriple(coords, seed=301)
    t = 0.3

    def vol_gen(triple):
        tt = t * t

        def gen(pts):
            u, gu, _ = eval_hct(triple.element, pts, triple.u_dofs)
            m = [eval_hct(triple.element, pts, triple.m_dofs[c]) for c in range(3)]
            M = np.stack([m[0][0], m[1][0], m[2][0]], axis=1)
            # second derivatives of the moment fields
            h11, h12, h22 = (m[c][2] for c in range(3))
            hu = eval_hct(triple.element, pts, triple.u_dofs)[2]
            # w = grad u - t^2 div M, then eps(w) and div(div M)
            dw1x = hu[:, 0] - tt * (h11[:, 0] + h12[:, 1])
            dw1y = hu[:, 1] - tt * (h11[:, 1] + h12[:, 2])
            dw2x = hu[:, 1] - tt * (h12[:, 0] + h22[:, 1])
            dw2y = hu[:, 2] - tt * (h12[:, 1] + h22[:, 2])
            eps = np.stack([dw1x, 0.5 * (dw1y + dw2x), dw2y], axis=1)
            s = h11[:, 0] + 2.0 * h12[:, 1] + h22[:, 2]
            return u, gu, M, eps, s, gu.copy()

        return gen

    # integrate over the macro-element subtriangles of each generator;
    # both generators share the same split, so one list serves
    subtris = [a.element.sub_coords[k] for k in range(3)]
    vol = trace_pair_volume(subtris, vol_gen(a), vol_gen(b), t)
    edge = trace_pair_edge(coords, a, b, t)
    scale = max(abs(vol), abs(edge))
    assert abs(vol - edge) < 1e-11 * scale


def triple_test_norm_sq(triple, t, quad_degree=12):
    """V(T, t) norm of the generated (z, Theta, tau) triple, by quadrature."""
    tt = t * t
    rule = triangle_rule(quad_degree)
    total = 0.0
    for k in range(3):
        (pts,), (w,) = map_to_triangles(rule, triple.element.sub_coords[k][None])
        u, gu, hu = eval_hct(triple.element, pts, triple.u_dofs)
        m = [eval_hct(triple.element, pts, triple.m_dofs[c]) for c in range(3)]
        M = np.stack([m[0][0], m[1][0], m[2][0]], axis=1)
        h11, h12, h22 = (m[c][2] for c in range(3))
        dw1x = hu[:, 0] - tt * (h11[:, 0] + h12[:, 1])
        dw1y = hu[:, 1] - tt * (h11[:, 1] + h12[:, 2])
        dw2x = hu[:, 1] - tt * (h12[:, 0] + h22[:, 1])
        dw2y = hu[:, 2] - tt * (h12[:, 1] + h22[:, 2])
        e11, e12, e22 = dw1x, 0.5 * (dw1y + dw2x), dw2y
        sdd = h11[:, 0] + 2.0 * h12[:, 1] + h22[:, 2]  # tau = grad z cancels
        dens = (u * u + t * (gu * gu).sum(axis=1)
                + M[:, 0] ** 2 + 2.0 * M[:, 1] ** 2 + M[:, 2] ** 2
                + t * (gu * gu).sum(axis=1)
                + e11**2 + 2.0 * e12**2 + e22**2 + sdd**2)
        total += w @ dens
    return total


def test_trace_pairing_bounded_by_test_norm():
    coords = random_triangle(60)
    kernel = make_kernel(coords)
    rng = np.random.default_rng(61)
    for t in (1e-4, 0.5):
        triple = HctTriple(coords, seed=600)
        qhat = np.concatenate([triple.u_dofs, triple.m_dofs.ravel()])
        B = b_trace(kernel, t)[0]
        G = gram(kernel, t)[0]
        q_norm = np.sqrt(triple_test_norm_sq(triple, t))
        for _ in range(5):
            v = rng.standard_normal(dpg.n_test(t))
            pairing = abs(v @ (B @ qhat))
            v_norm = np.sqrt(v @ G @ v)
            assert pairing <= q_norm * v_norm * (1.0 + 1e-9) + 1e-12


# ---- the integration-by-parts consistency identity


class Quadratic:
    """Scalar quadratic c0 + c1 x + c2 y + c3 x^2 + c4 xy + c5 y^2."""

    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)

    def val(self, x, y):
        c = self.c
        return c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y + c[5] * y * y

    def grad(self, x, y):
        c = self.c
        return (c[1] + 2.0 * c[3] * x + c[4] * y, c[2] + c[4] * x + 2.0 * c[5] * y)

    def hess(self):
        c = self.c
        return (2.0 * c[3], c[4], 2.0 * c[5])


# the ids name the identity material law, the one the solver has
@pytest.mark.parametrize("t", [0.0, 1e-4, 0.3, 1.0], ids=lambda t: f"identity-{t}")
def test_ultraweak_consistency_identity(t):
    rng = np.random.default_rng(17)
    coords = random_triangle(70)
    kernel = make_kernel(coords)
    ns = dpg.N_SCALAR
    tt = t * t

    uq = Quadratic(rng.standard_normal(6))
    Mq = [Quadratic(rng.standard_normal(6)) for _ in range(3)]

    x, y = kernel.vpts[0, :, 0], kernel.vpts[0, :, 1]
    w = kernel.vw[0]
    uv = uq.val(x, y)
    gux, guy = uq.grad(x, y)
    Mv = np.stack([q.val(x, y) for q in Mq], axis=1)
    gM = [q.grad(x, y) for q in Mq]
    hM = [q.hess() for q in Mq]
    hu = uq.hess()

    def place(comp, table):
        out = np.zeros((table.shape[0], dpg.n_test(t)))
        out[:, comp * ns : (comp + 1) * ns] = table
        return out

    V, Dx, Dy = kernel.V[0], kernel.Dx[0], kernel.Dy[0]
    th = [place(1, V), place(2, V), place(3, V)]
    loop = LoopKernel(coords)
    e11, e22, e12 = loop.strain_features(t)
    S = loop.scaled_div_feature(t)

    lhs = (w * uv) @ S
    lhs += (w * Mv[:, 0]) @ (th[0] + e11)
    lhs += 2.0 * ((w * Mv[:, 1]) @ (th[1] + e12))
    lhs += (w * Mv[:, 2]) @ (th[2] + e22)
    if t > 0.0:
        dzx, dzy = place(0, Dx), place(0, Dy)
        lhs += t * ((w * gux) @ (place(4, V) - dzx))
        lhs += t * ((w * guy) @ (place(5, V) - dzy))

    qhat = np.empty(36)
    for v in range(3):
        px, py = coords[v]
        g = uq.grad(px, py)
        qhat[3 * v : 3 * v + 3] = (uq.val(px, py), g[0], g[1])
    for c in range(3):
        for v in range(3):
            px, py = coords[v]
            g = Mq[c].grad(px, py)
            qhat[9 * (c + 1) + 3 * v : 9 * (c + 1) + 3 * v + 3] = (
                Mq[c].val(px, py), g[0], g[1])
    lhs += b_trace(kernel, t)[0] @ qhat

    # conforming side: (div div M, z) + (C^{-1} M + eps(grad u - t^2 div M), Theta)
    divdivM = hM[0][0] + 2.0 * hM[1][1] + hM[2][2]
    # C^{-1} M = M under the identity law
    a11 = Mv[:, 0] + hu[0] - tt * (hM[0][0] + hM[1][1])
    a22 = Mv[:, 2] + hu[2] - tt * (hM[1][1] + hM[2][2])
    a12 = Mv[:, 1] + hu[1] - 0.5 * tt * (hM[0][1] + hM[1][2] + hM[1][0] + hM[2][1])
    rhs = (w * divdivM) @ place(0, V)
    rhs += (w * a11) @ th[0] + 2.0 * ((w * a12) @ th[1]) + (w * a22) @ th[2]

    scale = np.abs(rhs).max()
    assert np.abs(lhs - rhs).max() < 1e-12 * scale


# ---- global jump orthogonality on a mesh


def field_from_global(elements, ti, dofs9):
    element = elements[ti]

    def at(pts):
        return eval_hct(element, pts, dofs9)

    return at


def test_jump_orthogonality():
    """Conforming trace against conforming test pairs to zero over the mesh.

    The skeleton pairing telescopes: interior edges cancel by C1
    continuity, boundary edges vanish when the trace satisfies the
    support conditions and the test triple is conforming with zero
    deflection and zero normal moment on the boundary.  The same
    vertex-dof pattern constrains both sides.
    """
    from plate_dpg.driver import constrained_traces
    from plate_dpg.mesh import mesh_at_level

    mesh = mesh_at_level(1)
    elements = hct_elements(mesh)
    nv = mesh.num_vertices

    for bc, t_values in (("simply-supported", (1e-2, 1e-6)), ("clamped", (0.0,))):
        mask = constrained_traces(mesh, bc)

        for trial in range(3):
            rng = np.random.default_rng(1000 + trial)
            # trace side: u-hat and three moment fields, support dofs zeroed
            qhat = rng.standard_normal((nv, 4, 3))
            qhat[mask] = 0.0
            # test side: (z, Theta) constrained by the same pattern, tau free
            tdofs = rng.standard_normal((nv, 4, 3))
            tdofs[mask] = 0.0
            zf = HctScalarField(mesh, tdofs[:, 0].ravel())
            thf = [HctScalarField(mesh, tdofs[:, 1 + c].ravel()) for c in range(3)]
            tauf = [HctScalarField(mesh, rng.standard_normal(3 * nv))
                    for _ in range(2)]

            for t in t_values:
                total = 0.0
                scale = 0.0
                for ti in range(mesh.num_triangles):
                    element = elements[ti]
                    verts = mesh.triangles[ti]
                    # qhat[verts, f] is (vertex, comp) in local dof order
                    trace = HctTriple.from_dofs(
                        element,
                        qhat[verts, 0].ravel(),
                        np.stack([qhat[verts, 1 + c].ravel() for c in range(3)]),
                    )

                    zd = zf.local_dofs(ti)
                    thd = [f.local_dofs(ti) for f in thf]
                    taud = [f.local_dofs(ti) for f in tauf]

                    def test_gen(pts):
                        z, gz, _ = eval_hct(element, pts, zd)
                        th = [eval_hct(element, pts, d) for d in thd]
                        Th = np.stack([th[0][0], th[1][0], th[2][0]], axis=1)
                        dTh = np.stack(
                            [th[0][1][:, 0] + th[1][1][:, 1],
                             th[1][1][:, 0] + th[2][1][:, 1]], axis=1)
                        tau = np.stack([eval_hct(element, pts, taud[0])[0],
                                        eval_hct(element, pts, taud[1])[0]],
                                       axis=1)
                        return z, gz, Th, dTh, tau

                    pair = trace_pair_edge(mesh.vertices[mesh.triangles[ti]], trace,
                                           test_gen, t)
                    total += pair
                    scale += abs(pair)
                assert abs(total) <= 1e-9 * scale, (bc, t, trial)
