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
The constraint rows of a stack of triangles are built together.
"""

import numpy as np
from scipy.linalg import get_lapack_funcs

from .quadrature import NEXT, segment_points
from .testspace import BAD_TRIANGLE, BarycentricMap, eval_scalar_basis, first_singular

# local dof order: (value, d/dx, d/dy) at vertex 0, then vertex 1, then vertex 2
N_DOFS = 9
_VALUE_S = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
_GRAD_S = np.array([0.0, 0.5, 1.0])


class HctElement:
    """The reduced HCT basis of a stack of triangles (no leading axis for one)."""

    def __init__(self, coords, sub_coords, coeffs):
        self.coords = coords            # (..., 3, 2) parent vertices, CCW
        self.sub_coords = sub_coords    # (..., 3, 3, 2); subtriangle k owns parent edge k
        self.coeffs = coeffs            # (..., 9, 3, 10) Bernstein coeffs per basis/sub


def unit_normals(p, q):
    """Right-hand unit normals of the segments p-q, outward on a CCW triangle."""
    d = q - p
    return np.stack([d[..., 1], -d[..., 0]], axis=-1) / np.hypot(d[..., 0], d[..., 1])[..., None]


# subtriangle s meets the internal edges s and s + 1 (from parent vertex s, s + 1
# to the center), as the right and the left side of their constraints
_SUB_EDGES = [[k, NEXT[k]] for k in range(3)]


def _rank_message(xy, null_dim):
    """The one-line error for a triangle whose constraints lose their 9-dim null space."""
    ratio = np.abs(xy).max() / np.hypot(*(xy[NEXT] - xy).T).max()
    return (f"HCT constraints of a triangle have a {null_dim}-dim null space, not "
            f"{N_DOFS} (largest vertex coordinate / diameter = {ratio:.3g}): the triangle "
            "is too thin, or too far from the origin for its size; translate or refine "
            "the mesh")


def build_hct_element(coords, first=0):
    """Construct the nine nodal basis functions on each triangle of `coords` (..., 3, 2).

    The constraint rows of all triangles are built from stacked basis
    tables, one evaluation per point set; each table is taken at the same
    points, in the same groups, as on a single triangle, so every triangle
    gets the bits it gets on its own.  Each evaluation takes only the
    derivatives its rows use.  Only the null space is computed triangle by
    triangle, with scipy's bare `gesdd`, as `scipy.linalg.null_space`
    computes it; the nodal matrices take nine stacked row products, and
    their inverses and the coefficients one stacked call each.  A thin or
    far-off triangle that `testspace.triangle_gate` passes can still lose
    digits here: a singular subtriangle map raises ValueError(BAD_TRIANGLE),
    and a null space other than nine-dimensional the rank message, each
    after "element {first + i}: " for the first failing triangle, at place i.
    """
    coords = np.asarray(coords, dtype=float)
    lead = coords.shape[:-2]
    P = coords.reshape(-1, 3, 2)
    ne = P.shape[0]
    center = P.mean(axis=1)
    Q = P[:, NEXT]
    sub_coords = np.stack([P, Q, np.broadcast_to(center[:, None], P.shape)], axis=2)
    try:
        subs = BarycentricMap(sub_coords)                   # (ne, 3) maps
    except np.linalg.LinAlgError:  # raised for the stack: name the first singular one
        raise ValueError(f"element {first + first_singular(sub_coords)}: {BAD_TRIANGLE}") from None

    # C0 and C1 across internal edge k (p_k, center), shared by subs k - 1 and k:
    # one row per point, values at _VALUE_S, then d/dx and d/dy at _GRAD_S
    internal = [segment_points(P, center[:, None], s)[:, _SUB_EDGES] for s in (_VALUE_S, _GRAD_S)]
    val, _, _ = eval_scalar_basis(subs, internal[0], order=0)
    _, grad, _ = eval_scalar_basis(subs, internal[1], order=1)
    # (ne, sub, side, 10 points, 10): side 0 is the sub's edge s, side 1 its edge s + 1
    tabs = np.concatenate([val, grad[..., 0], grad[..., 1]], axis=3)
    A = np.zeros((ne, 33, 30))
    for k in range(3):
        left, right = (k - 1) % 3, k
        A[:, 10 * k : 10 * k + 10, 10 * left : 10 * left + 10] = tabs[:, left, 1]
        A[:, 10 * k : 10 * k + 10, 10 * right : 10 * right + 10] -= tabs[:, right, 0]

    # reduced condition: normal derivative affine along exterior edge k of sub k
    n = unit_normals(P, Q)[:, :, None, None]
    _, grad, _ = eval_scalar_basis(subs, segment_points(P, Q, _GRAD_S), order=1)
    gn = grad[..., 0] * n[..., 0] + grad[..., 1] * n[..., 1]  # (ne, 3, 3, 10)
    for k in range(3):
        A[:, 30 + k, 10 * k : 10 * k + 10] = gn[:, k, 1] - 0.5 * (gn[:, k, 0] + gn[:, k, 2])
    A /= np.linalg.norm(A, axis=2)[:, :, None]

    # null space of each A[i] as scipy's null_space(A[i], rcond=1e-10) takes it:
    # the wrapper's checks once for the stack, then its gesdd call with the
    # lwork of its svd (every A[i] has one shape) and its rank rule
    if not np.isfinite(A).all():
        raise ValueError("array must not contain infs or NaNs")
    gesdd, gesdd_lwork = get_lapack_funcs(("gesdd", "gesdd_lwork"), (A,), ilp64="preferred")
    lwork = int(gesdd_lwork(*A.shape[1:], compute_uv=True, full_matrices=True)[0])

    Z = np.empty((ne, 30, N_DOFS))
    for i in range(ne):
        _, s, vh, info = gesdd(A[i], compute_uv=True, lwork=lwork, full_matrices=True)
        if info > 0:
            raise np.linalg.LinAlgError("SVD did not converge")
        if info < 0:
            raise ValueError(f"illegal value in {-info}th argument of internal gesdd")
        num = np.sum(s > np.amax(s) * 1e-10, dtype=int)
        if len(vh) - num != N_DOFS:
            raise ValueError(f"element {first + i}: {_rank_message(P[i], len(vh) - num)}")
        Z[i] = vh[num:].T

    # nodal matrix: value, d/dx, d/dy at parent vertex k, the first vertex of sub k (C1 makes
    # the sub moot), one stacked product per row: a (3, 10) block takes another BLAS path
    val, grad, _ = eval_scalar_basis(subs, P[:, :, None], order=1)
    N = np.stack([(row[:, None] @ Z[:, 10 * k : 10 * k + 10])[:, 0] for k in range(3)
                  for row in (val[:, k, 0], grad[:, k, 0, :, 0], grad[:, k, 0, :, 1])], axis=1)
    # C order: the trace tables' products take their BLAS path from the layout
    coeffs = np.ascontiguousarray(np.swapaxes(Z @ np.linalg.inv(N), 1, 2))
    return HctElement(coords, sub_coords.reshape(lead + (3, 3, 2)),
                      coeffs.reshape(lead + (N_DOFS, 3, 10)))


def eval_hct(element, pts):
    """Values and gradients of the nine basis functions of one triangle at `pts`.

    Returns (val (nq, 9), grad (nq, 9, 2)).
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    nq = pts.shape[0]
    val = np.empty((nq, N_DOFS))
    grad = np.empty((nq, N_DOFS, 2))
    # the subtriangle that holds each point deepest; on a tie, the first one
    sub = BarycentricMap(element.sub_coords)(pts).min(axis=2).argmax(axis=0)
    for s in range(3):
        idx = np.flatnonzero(sub == s)
        if idx.size == 0:
            continue
        v, g, _ = eval_scalar_basis(BarycentricMap(element.sub_coords[s]), pts[idx], order=1)
        C = element.coeffs[:, s, :].T  # (10, 9)
        val[idx] = v @ C
        grad[idx] = np.einsum("qbd,bj->qjd", g, C)
    return val, grad


def eval_on_parent_edges(element, s):
    """Basis values and gradients at points of the three exterior edges.

    Edge k is parameterized by s in [0, 1] from vertex k to vertex NEXT[k]
    and evaluated from its owning subtriangle k, which is exact for traces;
    the three edges of a stack of elements take one basis evaluation.
    Returns (val (..., 3, nq, 9), grad (..., 3, nq, 9, 2)).
    """
    coords = element.coords
    pts = segment_points(coords, coords[..., NEXT, :], np.asarray(s, dtype=float))
    v, g, _ = eval_scalar_basis(BarycentricMap(element.sub_coords), pts, order=1)
    C = np.moveaxis(element.coeffs, -3, -1)  # (..., sub, 10, 9)
    return v @ C, np.einsum("...qbd,...bj->...qjd", g, C)
