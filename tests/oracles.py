"""Reference implementations the tests compare the solver against.

None of these run in the solver itself: the duality pairings of smooth
triples, whose HCT fields and their Hessians `hct_field` evaluates,
cross-check the assembled skeleton terms, the globally C1 field
and the vertex interpolant exercise the trace element across a mesh, the
edge-trace coefficients and outward normals pin down the element geometry,
random triangles and jittered meshes vary it, the element means are the best elementwise
constants for the error tests, the sparse sums and products through
which the solver once formed A and its Jacobi scaling pin down the bytes
of the ones it forms in place, the (vertex, field, comp) triples the
solver once listed edge by edge pin down its constrained-trace mask, and
the loops and index formulas it once ran per entry (red refinement, the
triangle rule, HCT point location, trace dof ids, the mesh's edge
numbering and adjacency) pin down the bytes of the arrays that replaced
them.
"""

import numpy as np
import scipy.sparse as sp
from scipy.special import roots_jacobi

from plate_dpg import quadrature
from plate_dpg.driver import DX, DY, TRACE_M11, TRACE_M12, TRACE_M22, TRACE_U, VAL
from plate_dpg.hct import _GRAD_S, _VALUE_S, build_hct_element, eval_on_parent_edges
from plate_dpg.manufactured import ExactSolution
from plate_dpg.mesh import Mesh, mesh_at_level
from plate_dpg.testspace import BarycentricMap, eval_scalar_basis


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
        (pts,), (w,) = quadrature.map_to_triangles(rule, np.asarray(tri)[None])
        u, gu, M, ea, sa, th = gen_a(pts)
        z, gz, Th, eb, sb, tau = gen_b(pts)
        frob_Me = M[:, 0] * eb[:, 0] + 2.0 * M[:, 1] * eb[:, 1] + M[:, 2] * eb[:, 2]
        frob_eT = ea[:, 0] * Th[:, 0] + 2.0 * ea[:, 1] * Th[:, 1] + ea[:, 2] * Th[:, 2]
        total += w @ (u * sb - sa * z + frob_Me - frob_eT
                      - t * np.einsum("qd,qd->q", th, gz)
                      + t * np.einsum("qd,qd->q", gu, tau))
    return total


class HctTriple:
    """Deflection/moment/rotation triple built from four C1 scalar fields.

    Called on points, it returns the (u, grad_u, M, div_M, theta) tuple the
    edge pairing takes, with theta = grad_u.
    """

    def __init__(self, coords, seed):
        rng = np.random.default_rng(seed)
        self.element = build_hct_element(coords)
        self.u_dofs = rng.standard_normal(9)
        self.m_dofs = rng.standard_normal((3, 9))

    @classmethod
    def from_dofs(cls, element, u_dofs, m_dofs):
        out = cls.__new__(cls)
        out.element = element
        out.u_dofs = np.asarray(u_dofs, dtype=float)
        out.m_dofs = np.asarray(m_dofs, dtype=float)
        return out

    def __call__(self, pts):
        u, gu, _ = hct_field(self.element, pts, self.u_dofs)
        m = [hct_field(self.element, pts, self.m_dofs[c]) for c in range(3)]
        M = np.stack([m[0][0], m[1][0], m[2][0]], axis=1)
        dM = np.stack(
            [m[0][1][:, 0] + m[1][1][:, 1], m[1][1][:, 0] + m[2][1][:, 1]],
            axis=1,
        )
        return u, gu, M, dM, gu.copy()


# ---- the C1 trace element across a mesh


def hct_elements(mesh):
    """The reduced HCT element of each triangle of `mesh`, built one at a time."""
    return [build_hct_element(coords) for coords in mesh.vertices[mesh.triangles]]


def eval_on_parent_edge(element, local_edge, s):
    """Basis values and gradients at points of exterior edge `local_edge`, one edge per call.

    The reference for `hct.eval_on_parent_edges`, which takes the three
    edges in one call.  The edge is parameterized by s in [0, 1] from
    vertex k to vertex k+1 and evaluated from its owning subtriangle.
    Returns (val (..., nq, 9), grad (..., nq, 9, 2)) for a stack of elements.
    """
    k = local_edge
    pts = quadrature.segment_points(element.coords[..., k, :],
                                    element.coords[..., (k + 1) % 3, :],
                                    np.asarray(s, dtype=float))
    v, g, _ = eval_scalar_basis(BarycentricMap(element.sub_coords[..., k, :, :]), pts,
                                order=1)
    C = np.swapaxes(element.coeffs[..., :, k, :], -1, -2)
    return v @ C, np.einsum("...qbd,...bj->...qjd", g, C)


def hct_edge_trace(element, local_edge):
    """Polynomial coefficients (ascending in s) of the edge traces.

    Returns (value (9, 4), grad (9, 2, 3)): per basis function, the cubic
    value trace and the degree <= 2 Cartesian gradient traces along edge
    `local_edge`, parameterized by s in [0, 1].
    """
    vv = eval_on_parent_edges(element, _VALUE_S)[0][local_edge]
    gg = eval_on_parent_edges(element, _GRAD_S)[1][local_edge]
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
        return hct_field(elements[ti], pts, self.local_dofs(ti))


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


def random_triangle(seed):
    """A CCW triangle with vertices drawn uniformly in [-1, 1]^2, area above 0.05."""
    rng = np.random.default_rng(seed)
    while True:
        coords = rng.uniform(-1.0, 1.0, (3, 2))
        d1, d2 = coords[1] - coords[0], coords[2] - coords[0]
        if 0.5 * (d1[0] * d2[1] - d1[1] * d2[0]) > 0.05:
            return coords


def jittered_mesh(level, seed):
    """Uniform mesh with interior vertices moved by up to 0.3 h per coordinate."""
    base = mesh_at_level(level)
    h = 2.0 ** -(level + 1)
    interior = np.setdiff1d(np.arange(base.num_vertices), base.boundary_vertices)
    rng = np.random.default_rng(seed)
    vertices = base.vertices.copy()
    vertices[interior] += rng.uniform(-0.3 * h, 0.3 * h, size=(interior.size, 2))
    return Mesh(vertices, base.triangles, level=level)


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
    from plate_dpg.quadrature import map_to_triangles, triangle_rule

    ex = ExactSolution(t)
    rule = triangle_rule(quad_degree)
    nt = mesh.num_triangles
    u = np.empty(nt)
    M = np.empty((nt, 3))
    th = np.empty((nt, 2))
    for ti in range(nt):
        (pts,), (w,) = map_to_triangles(rule, mesh.vertices[mesh.triangles[ti]][None])
        x, y = pts[:, 0], pts[:, 1]
        area = w.sum()
        u[ti] = (w @ ex.u(x, y)) / area
        m11, m12, m22 = ex.M(x, y)
        M[ti] = [(w @ m11) / area, (w @ m12) / area, (w @ m22) / area]
        tx, ty = ex.theta(x, y)
        th[ti] = [(w @ tx) / area, (w @ ty) / area]
    return u, M, th


# ---- A and its Jacobi scaling as scipy's sparse sums and products form them


def symmetric_from_coo(n, rows, cols, vals):
    """The full n x n CSC matrix of the lower-triangle COO triplets of a symmetric matrix.

    Duplicates are summed, and the upper triangle is the mirror image of
    the lower one, so the result is exactly symmetric.  Raises ValueError
    for a triplet with row < col.
    """
    if (rows < cols).any():
        raise ValueError("symmetric_from_coo takes lower-triangle triplets (row >= col)")
    lower = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return (lower + lower.T - sp.diags(lower.diagonal())).tocsc()


def diags_scaled(A, s):
    """diag(s) A diag(s) as a CSC matrix, through scipy's sparse matrix products."""
    return (sp.diags(s) @ sp.csc_matrix(A) @ sp.diags(s)).tocsc()


def assembled_triplets(fidx, A_loc):
    """The lower-triangle COO triplets of the element matrices `A_loc`, in element order.

    `fidx` holds each element column's free dof, -1 where constrained.
    """
    keep = fidx >= 0
    pairs = keep[:, None, :] & (fidx[:, :, None] >= fidx[:, None, :])
    rows = np.broadcast_to(fidx[:, :, None], pairs.shape)[pairs]
    cols = np.broadcast_to(fidx[:, None, :], pairs.shape)[pairs]
    return rows, cols, A_loc[pairs]


# ---- the constrained traces as sorted (vertex, field, comp) triples, edge by edge


def apply_bc_simply_supported(mesh):
    """Constrained (vertex, field, comp) triples for the soft support.

    On each boundary edge the deflection trace u-hat and the moment
    components entering M n must vanish: on horizontal edges (normal
    +-e_y) these are M12 and M22, on vertical edges M11 and M12.  Zeroing
    the value and tangential derivative at both endpoints kills the cubic
    value trace on the whole edge; corners accumulate both directions.
    Both ends on y = 0 or both on y = 1 make an edge horizontal, both on
    x = 0 or both on x = 1 vertical; any other edge raises ValueError.
    """
    out = set()
    for e in mesh.boundary_edges:
        (px, py), (qx, qy) = mesh.vertices[mesh.edges[e]]
        horizontal = py == qy and py in (0.0, 1.0)
        if not (horizontal or px == qx and px in (0.0, 1.0)):
            raise ValueError("boundary conditions require a unit-square mesh")
        tang = DX if horizontal else DY
        fields = (TRACE_U, TRACE_M12, TRACE_M22) if horizontal \
            else (TRACE_U, TRACE_M11, TRACE_M12)
        for v in mesh.edges[e]:
            for f in fields:
                out.add((int(v), f, VAL))
                out.add((int(v), f, tang))
    return sorted(out)


def apply_bc_clamped(mesh):
    """Clamped limit: deflection value and full gradient pinned on the boundary."""
    return [(int(v), TRACE_U, c) for v in mesh.boundary_vertices for c in (VAL, DX, DY)]


# ---- the loops and index formulas once run per entry


def build_edges_loop(triangles):
    """`edges`, `tri_edges` and `edge_tris` of a mesh's triangles, one edge at a time.

    Edges are numbered as first seen; edge_tris holds the one or two
    triangles of each edge, -1 for a missing neighbour.  Raises the
    ValueError of `Mesh` at the first bad edge occurrence.
    """
    index = {}
    edges = []
    tri_edges = np.empty((len(triangles), 3), dtype=np.int64)
    adj = []
    tails = []
    for ti, (a, b, c) in enumerate(triangles):
        for k, (p, q) in enumerate(((a, b), (b, c), (c, a))):
            key = (min(p, q), max(p, q))
            e = index.get(key)
            if e is None:
                e = len(edges)
                index[key] = e
                edges.append(key)
                adj.append([ti, -1])
                tails.append(p)  # the vertex its first triangle leaves it from
            else:
                if adj[e][1] != -1:
                    raise ValueError(f"triangles {adj[e][0]}, {adj[e][1]} and {ti} share "
                                     f"edge {key[0]}-{key[1]}")
                if tails[e] == p:
                    raise ValueError(f"triangles {adj[e][0]} and {ti} overlap: both "
                                     f"traverse edge {p}-{q} in one direction")
                adj[e][1] = ti
            tri_edges[ti, k] = e
    return (np.array(edges, dtype=np.int64), tri_edges, np.array(adj, dtype=np.int64))


def refine_uniform_loop(mesh):
    """The vertices and children of one red refinement, built triangle by triangle."""
    nv = mesh.num_vertices
    mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    children = []
    for ti, (a, b, c) in enumerate(mesh.triangles):
        m0, m1, m2 = nv + mesh.tri_edges[ti]
        children.extend([(a, m0, m2), (b, m1, m0), (c, m2, m1), (m0, m1, m2)])
    return np.vstack([mesh.vertices, mids]), np.array(children, dtype=np.int64)


def triangle_rule_loop(degree):
    """Points and weights of `quadrature.triangle_rule(degree)`, one point at a time."""
    n = max((degree + 2) // 2, 1)
    xg, wg = np.polynomial.legendre.leggauss(n)
    xi = 0.5 * (xg + 1.0)
    wxi = 0.5 * wg
    xj, wj = roots_jacobi(n, 1.0, 0.0)
    eta = 0.5 * (xj + 1.0)
    weta = 0.25 * wj
    pts = np.empty((n * n, 2))
    wts = np.empty(n * n)
    k = 0
    for j in range(n):
        for i in range(n):
            pts[k, 0] = xi[i] * (1.0 - eta[j])
            pts[k, 1] = eta[j]
            wts[k] = wxi[i] * weta[j]
            k += 1
    return pts, wts


def locate_sub(element, pts):
    """Index of the subtriangle of one HCT element containing each point (ties broken by depth)."""
    best = np.full(pts.shape[0], -1)
    depth = np.full(pts.shape[0], -np.inf)
    for s in range(3):
        lam = BarycentricMap(element.sub_coords[s])(pts)
        d = lam.min(axis=1)
        take = d > depth
        best[take] = s
        depth[take] = d[take]
    return best


def eval_hct_loop(element, pts):
    """`eval_hct(element, pts)`, each point evaluated on the subtriangle `locate_sub` picks."""
    val = np.empty((len(pts), 9))
    grad = np.empty((len(pts), 9, 2))
    hess = np.empty((len(pts), 9, 3))
    sub = locate_sub(element, pts)
    for s in range(3):
        idx = np.flatnonzero(sub == s)
        if idx.size == 0:
            continue
        v, g, h = eval_scalar_basis(BarycentricMap(element.sub_coords[s]), pts[idx])
        C = element.coeffs[:, s, :].T
        val[idx] = v @ C
        grad[idx] = np.einsum("qbd,bj->qjd", g, C)
        hess[idx] = np.einsum("qbd,bj->qjd", h, C)
    return val, grad, hess


def hct_field(element, pts, dofs):
    """Value (nq,), gradient (nq, 2) and Hessian (nq, 3) of the field with local `dofs`.

    Evaluated by `eval_hct_loop`, whose values and gradients have the bits
    of `hct.eval_hct`.  The Hessians are those of the subtriangle cubics,
    meaningful off the internal edges, where the second derivatives jump.
    """
    val, grad, hess = eval_hct_loop(element, pts)
    dofs = np.asarray(dofs, dtype=float)
    return val @ dofs, grad.transpose(0, 2, 1) @ dofs, hess.transpose(0, 2, 1) @ dofs


def trace_dof(dof, vertex, tfield, comp):
    """Global id of trace dof `comp` of generating field `tfield` at `vertex`, broadcast."""
    return dof.field_total + 12 * vertex + 3 * tfield + comp

