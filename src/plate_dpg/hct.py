"""Reduced Hsieh-Clough-Tocher scalar element on a physical triangle.

The triangle is split at its barycenter into three subtriangles, each
carrying a cubic.  Enforcing C1 matching across the three internal edges
and an affine normal derivative along each exterior edge leaves exactly
nine degrees of freedom: value and both gradient components at the three
parent vertices.  A field assembled from vertex dofs is therefore C1
across element interfaces as well: the value trace on a parent edge is
the cubic fixed by the endpoint values and tangential derivatives, and
the normal-derivative trace is the affine function fixed by the endpoint
normal derivatives.

The element is not affine-equivariant (the reduced condition depends on
the physical normal directions), so the basis is constructed numerically
per element: the 30 Bernstein coefficients of each basis function solve
a constraint system whose null space is computed once per triangle.
"""

import numpy as np
from scipy.linalg import null_space

from .testspace import BarycentricMap, eval_scalar_basis

# local dof order: (value, d/dx, d/dy) at vertex 0, then vertex 1, then vertex 2
N_DOFS = 9
_VALUE_S = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
_GRAD_S = np.array([0.0, 0.5, 1.0])


class HctElement:
    def __init__(self, coords, sub_coords, coeffs, sub_maps):
        self.coords = coords            # (3, 2) parent vertices, CCW
        self.sub_coords = sub_coords    # (3, 3, 2); subtriangle k owns parent edge k
        self.coeffs = coeffs            # (9, 3, 10) Bernstein coeffs per basis/sub
        self.sub_maps = sub_maps        # BarycentricMap of each subtriangle


def _edge_points(p, q, s):
    return p[None, :] + np.outer(s, q - p)


def build_hct_element(coords):
    """Construct the nine nodal basis functions on one triangle."""
    coords = np.asarray(coords, dtype=float)
    center = coords.mean(axis=0)
    sub_coords = np.array(
        [[coords[k], coords[(k + 1) % 3], center] for k in range(3)]
    )
    sub_maps = [BarycentricMap(sub_coords[k]) for k in range(3)]

    rows = []

    def basis_row(sub, pts, kind):
        # (npts, 10) tables of subtriangle `sub` at `pts`
        val, grad, _ = eval_scalar_basis(sub_maps[sub], pts, 3)
        if kind == "val":
            return (val,)
        return grad[:, :, 0], grad[:, :, 1]

    # C0 and C1 across internal edge (p_k, center), shared by subs k-1 and k
    for k in range(3):
        left, right = (k - 1) % 3, k
        pts_v = _edge_points(coords[k], center, _VALUE_S)
        pts_g = _edge_points(coords[k], center, _GRAD_S)
        for kind, pts in (("val", pts_v), ("grad", pts_g)):
            tabs_l = basis_row(left, pts, kind)
            tabs_r = basis_row(right, pts, kind)
            for tl, tr in zip(tabs_l, tabs_r):
                for i in range(tl.shape[0]):
                    row = np.zeros(30)
                    row[10 * left : 10 * left + 10] = tl[i]
                    row[10 * right : 10 * right + 10] -= tr[i]
                    rows.append(row)

    # reduced condition: normal derivative affine along exterior edge k of sub k
    for k in range(3):
        p, q = coords[k], coords[(k + 1) % 3]
        d = q - p
        n = np.array([d[1], -d[0]]) / np.hypot(*d)
        pts = _edge_points(p, q, _GRAD_S)
        _, grad, _ = eval_scalar_basis(sub_maps[k], pts, 3)
        gn = grad[:, :, 0] * n[0] + grad[:, :, 1] * n[1]  # (3, 10)
        row = np.zeros(30)
        row[10 * k : 10 * k + 10] = gn[1] - 0.5 * (gn[0] + gn[2])
        rows.append(row)

    A = np.array(rows)
    A /= np.linalg.norm(A, axis=1)[:, None]
    Z = null_space(A, rcond=1e-10)
    if Z.shape[1] != N_DOFS:
        raise RuntimeError(
            f"constraint null space has dimension {Z.shape[1]}, expected {N_DOFS}"
        )

    # nodal matrix: value, d/dx, d/dy at each parent vertex (taken from sub k,
    # whose first vertex is parent vertex k; continuity makes the choice moot)
    N = np.empty((N_DOFS, N_DOFS))
    for k in range(3):
        val, grad, _ = eval_scalar_basis(sub_maps[k], coords[k][None, :], 3)
        zv = val[0] @ Z[10 * k : 10 * k + 10]
        zx = grad[0, :, 0] @ Z[10 * k : 10 * k + 10]
        zy = grad[0, :, 1] @ Z[10 * k : 10 * k + 10]
        N[3 * k] = zv
        N[3 * k + 1] = zx
        N[3 * k + 2] = zy
    coeffs = (Z @ np.linalg.inv(N)).T.reshape(N_DOFS, 3, 10)
    return HctElement(coords, sub_coords, coeffs, sub_maps)


def _locate_sub(element, pts):
    """Index of the subtriangle containing each point (ties broken by depth)."""
    best = np.full(pts.shape[0], -1)
    depth = np.full(pts.shape[0], -np.inf)
    for s in range(3):
        lam = element.sub_maps[s](pts)
        d = lam.min(axis=1)
        take = d > depth
        best[take] = s
        depth[take] = d[take]
    return best


def eval_hct(element, pts, dofs=None):
    """Values, gradients, Hessians of the nine basis functions at `pts`.

    Returns (val (nq, 9), grad (nq, 9, 2), hess (nq, 9, 3)); with `dofs`
    given, the combination is returned instead: (nq,), (nq, 2), (nq, 3).
    Hessians are only meaningful off the internal edges, where the broken
    second derivatives jump.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    nq = pts.shape[0]
    val = np.empty((nq, N_DOFS))
    grad = np.empty((nq, N_DOFS, 2))
    hess = np.empty((nq, N_DOFS, 3))
    sub = _locate_sub(element, pts)
    for s in range(3):
        idx = np.flatnonzero(sub == s)
        if idx.size == 0:
            continue
        v, g, h = eval_scalar_basis(element.sub_maps[s], pts[idx], 3)
        C = element.coeffs[:, s, :].T  # (10, 9)
        val[idx] = v @ C
        grad[idx] = np.einsum("qbd,bj->qjd", g, C)
        hess[idx] = np.einsum("qbd,bj->qjd", h, C)
    if dofs is None:
        return val, grad, hess
    dofs = np.asarray(dofs, dtype=float)
    return val @ dofs, grad.transpose(0, 2, 1) @ dofs, hess.transpose(0, 2, 1) @ dofs


def eval_on_parent_edge(element, local_edge, s):
    """Basis values and gradients at points of exterior edge `local_edge`.

    The edge is parameterized by s in [0, 1] from vertex k to vertex k+1 and
    evaluated from its owning subtriangle, which is exact for traces.
    Returns (val (nq, 9), grad (nq, 9, 2)).
    """
    k = local_edge
    pts = _edge_points(element.coords[k], element.coords[(k + 1) % 3], np.asarray(s))
    v, g, _ = eval_scalar_basis(element.sub_maps[k], pts, 3)
    C = element.coeffs[:, k, :].T
    return v @ C, np.einsum("qbd,bj->qjd", g, C)


def build_all_elements(mesh):
    return [build_hct_element(mesh.triangle_coords(ti)) for ti in range(mesh.num_triangles)]
