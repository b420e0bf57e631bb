"""Reference implementations the tests compare the solver against.

None of these run in the solver itself: the duality pairings cross-check
the assembled skeleton terms, the globally C1 field and the vertex
interpolant exercise the trace element across a mesh, the edge-trace
coefficients and outward normals pin down the element geometry, and the
element means are the best elementwise constants for the error tests.
"""

import numpy as np

from plate_dpg import quadrature
from plate_dpg.hct import _GRAD_S, _VALUE_S, build_hct_element, eval_hct, eval_on_parent_edge
from plate_dpg.manufactured import ExactSolution


# ---- diagnostic pairings used to cross-check the assembled skeleton terms


def trace_pair_edge(coords, gen_a, gen_b, t, edge_degree=8):
    """Edge-representation duality pairing of two smooth triples on one triangle.

    `gen_a(pts)` returns (u, grad_u (nq,2), M (nq,3), div_M (nq,2), theta (nq,2));
    `gen_b(pts)` returns (z, grad_z, Theta (nq,3), div_Theta (nq,2), tau (nq,2)).
    """
    coords = np.asarray(coords, dtype=float)
    rule = quadrature.edge_rule(edge_degree)
    tt = t * t
    total = 0.0
    for k in range(3):
        p, q = coords[k], coords[(k + 1) % 3]
        pts, w = quadrature.map_to_edge(rule, p, q)
        d = q - p
        n = np.array([d[1], -d[0]]) / np.hypot(*d)
        u, gu, M, dM, th = gen_a(pts)
        z, gz, Th, dTh, tau = gen_b(pts)
        qn_b = dTh @ n + t * ((tau - gz) @ n)
        qn_a = dM @ n + t * ((th - gu) @ n)
        Mn = np.stack([M[:, 0] * n[0] + M[:, 1] * n[1],
                       M[:, 1] * n[0] + M[:, 2] * n[1]], axis=1)
        Thn = np.stack([Th[:, 0] * n[0] + Th[:, 1] * n[1],
                        Th[:, 1] * n[0] + Th[:, 2] * n[1]], axis=1)
        wa = gz - tt * dTh
        wb = gu - tt * dM
        total += w @ (u * qn_b - qn_a * z
                      + np.einsum("qd,qd->q", Mn, wa)
                      - np.einsum("qd,qd->q", wb, Thn))
    return total


def trace_pair_volume(subtris, gen_a, gen_b, t, quad_degree=14):
    """Volume-form duality pairing, integrated over a list of subtriangles.

    `gen_a(pts)` returns (u, grad_u (nq,2), M (nq,3), eps_a (nq,3), s_a (nq,),
    theta (nq,2)) with eps_a = eps(grad u - t^2 div M) and
    s_a = div(div M + t(theta - grad u)); `gen_b` returns the analogous
    tuple for (z, Theta, tau).  Second derivatives jump across macro-element
    subtriangles, hence the explicit subdivision of the integration domain.
    Equals the edge representation for smooth arguments.
    """
    rule = quadrature.triangle_rule(quad_degree)
    total = 0.0
    for tri in subtris:
        pts, w = quadrature.map_to_triangle(rule, tri)
        u, gu, M, ea, sa, th = gen_a(pts)
        z, gz, Th, eb, sb, tau = gen_b(pts)
        frob_Me = M[:, 0] * eb[:, 0] + 2.0 * M[:, 1] * eb[:, 1] + M[:, 2] * eb[:, 2]
        frob_eT = ea[:, 0] * Th[:, 0] + 2.0 * ea[:, 1] * Th[:, 1] + ea[:, 2] * Th[:, 2]
        total += w @ (u * sb - sa * z + frob_Me - frob_eT
                      - t * np.einsum("qd,qd->q", th, gz)
                      + t * np.einsum("qd,qd->q", gu, tau))
    return total


# ---- the C1 trace element across a mesh


def hct_elements(mesh):
    """The reduced HCT element of each triangle of `mesh`, built one at a time."""
    return [build_hct_element(coords) for coords in mesh.vertices[mesh.triangles]]


def hct_edge_trace(element, local_edge):
    """Polynomial coefficients (ascending in s) of the edge traces.

    Returns (value (9, 4), grad (9, 2, 3)): per basis function, the cubic
    value trace and the degree <= 2 Cartesian gradient traces along edge
    `local_edge`, parameterized by s in [0, 1].
    """
    vv, _ = eval_on_parent_edge(element, local_edge, _VALUE_S)
    _, gg = eval_on_parent_edge(element, local_edge, _GRAD_S)
    V3 = np.vander(_VALUE_S, 4, increasing=True)
    V2 = np.vander(_GRAD_S, 3, increasing=True)
    value = np.linalg.solve(V3, vv).T            # (9, 4)
    gx = np.linalg.solve(V2, gg[:, :, 0]).T      # (9, 3)
    gy = np.linalg.solve(V2, gg[:, :, 1]).T
    return value, np.stack([gx, gy], axis=1)


class HctScalarField:
    """Globally C1 scalar field: one (value, d/dx, d/dy) triple per mesh vertex."""

    def __init__(self, mesh, dofs=None):
        self.mesh = mesh
        if dofs is None:
            dofs = np.zeros(3 * mesh.num_vertices)
        self.dofs = np.asarray(dofs, dtype=float)
        if self.dofs.shape != (3 * mesh.num_vertices,):
            raise ValueError("dof vector must have 3 entries per vertex")

    def local_dofs(self, ti):
        idx = np.repeat(3 * self.mesh.triangles[ti], 3) + np.tile([0, 1, 2], 3)
        return self.dofs[idx]

    def eval(self, ti, elements, pts):
        """(value, gradient, hessian) arrays of the field on triangle ti."""
        return eval_hct(elements[ti], pts, self.local_dofs(ti))


def interpolate(mesh, f, grad_f):
    """Vertex interpolant of a smooth function given with its gradient."""
    dofs = np.empty(3 * mesh.num_vertices)
    for v, p in enumerate(mesh.vertices):
        dofs[3 * v] = f(p[0], p[1])
        g = grad_f(p[0], p[1])
        dofs[3 * v + 1] = g[0]
        dofs[3 * v + 2] = g[1]
    return HctScalarField(mesh, dofs)


# ---- mesh geometry and the exact solution


def edge_outward_normal(mesh, ti, local_edge):
    """Unit outward normal of local edge k = (v_k, v_{k+1}) of triangle ti.

    CCW orientation puts the interior on the left of the directed edge, so
    the outward normal is the edge direction rotated by -90 degrees.
    """
    a, b, c = mesh.triangles[ti]
    tail, head = ((a, b), (b, c), (c, a))[local_edge]
    d = mesh.vertices[head] - mesh.vertices[tail]
    length = np.hypot(d[0], d[1])
    if length == 0.0:
        raise ValueError("degenerate edge")
    return np.array([d[1], -d[0]]) / length


def element_means(mesh, t, quad_degree=14):
    """Per-element means of the exact fields: the best constant approximants."""
    from plate_dpg.quadrature import map_to_triangle, triangle_rule

    ex = ExactSolution(t)
    rule = triangle_rule(quad_degree)
    nt = mesh.num_triangles
    u = np.empty(nt)
    M = np.empty((nt, 3))
    th = np.empty((nt, 2))
    for ti in range(nt):
        pts, w = map_to_triangle(rule, mesh.vertices[mesh.triangles[ti]])
        x, y = pts[:, 0], pts[:, 1]
        area = w.sum()
        u[ti] = (w @ ex.u(x, y)) / area
        m11, m12, m22 = ex.M(x, y)
        M[ti] = [(w @ m11) / area, (w @ m12) / area, (w @ m22) / area]
        tx, ty = ex.theta(x, y)
        th[ti] = [(w @ tx) / area, (w @ ty) / area]
    return u, M, th
