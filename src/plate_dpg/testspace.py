"""Scalar Bernstein basis of the broken test space, on a triangle or a stack of them.

Shape functions are Bernstein polynomials of the barycentric coordinates
of the physical triangle.  Each component of a test function (z, Theta,
tau) is spanned by the same scalar basis of degree DEGREE; `dpg` lays the
components out.
"""

import math

import numpy as np

from . import quadrature

# Bernstein degree of every basis here: the enriched broken test space
# (practical DPG, Gopalakrishnan and Qiu 2014) for constant fields and traces
# cubic along each edge, and the cubics on the HCT element's subtriangles
DEGREE = 3
N_SCALAR = (DEGREE + 1) * (DEGREE + 2) // 2  # polynomials of the basis
# largest vertex coordinate of a triangle: below it no product of two
# coordinate differences overflows; above it the squares of the coordinates do
COORD_MAX = np.sqrt(np.finfo(float).max) / 8
# largest error of a triangle's barycentric map at its own vertices: half the
# digits; uniform and jittered meshes stay below 1e-13
BARY_TOL = np.sqrt(np.finfo(float).eps)
# the message of every rejected triangle, here and in `hct`
BAD_TRIANGLE = "triangle must be CCW and non-degenerate"


class BarycentricMap:
    """Affine barycentric maps of a stack of triangles, inverted once.

    `coords` holds the (..., 3, 2) vertices; the leading axes index the
    triangles, and a single (3, 2) triangle is a map with no leading axis.
    Calling the map sends points (..., [extra axes], nq, 2) to barycentric
    coordinates (..., [extra axes], nq, 3): the map's axes pair with the
    leading axes of the points, and each triangle's map is broadcast over
    the extra ones.  `grad` is the constant (..., 3, 2) array of the
    gradients.  The 3x3 inverses are taken once for the stack; the stacked
    inverse and the stacked products equal the per-triangle ones bit for bit.
    """

    def __init__(self, coords):
        coords = np.asarray(coords, dtype=float)
        A = np.ones(coords.shape[:-2] + (3, 3))
        A[..., :2, :] = np.swapaxes(coords, -1, -2)
        self._Ainv = np.linalg.inv(A)
        self.grad = self._Ainv[..., :2].copy()

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        lead = self._Ainv.shape[:-2]
        Ainv = self._Ainv.reshape(lead + (1,) * (pts.ndim - 2 - len(lead)) + (3, 3))
        return pts @ np.swapaxes(Ainv[..., :2], -1, -2) + Ainv[..., None, :, 2]


def triangle_gate(coords, first):
    """The `BarycentricMap` of the triangles `coords` (ne, 3, 2), each one checked.

    In order: coordinates finite and at most COORD_MAX, the Jacobian > 0,
    the map not singular and within BARY_TOL of the triangle's own vertices;
    a check sees only the triangles before the first that failed so far.
    The first bad one, at place i, raises "element {first + i}: BAD_TRIANGLE".
    """
    coords = np.asarray(coords, dtype=float)
    n = _passed((np.abs(coords) <= COORD_MAX).all(axis=(1, 2)))  # NaN fails it too
    n = _passed(quadrature.triangle_jacobians(coords[:n])[2] > 0.0)
    try:
        bary = BarycentricMap(coords[:n])
    except np.linalg.LinAlgError:  # raised for the stack: find the first singular map
        n = first_singular(coords[:n])
        bary = BarycentricMap(coords[:n])
    n = _passed((np.abs(bary(coords[:n]) - np.eye(3)) <= BARY_TOL).all(axis=(1, 2)))
    if n < len(coords):
        raise ValueError(f"element {first + n}: {BAD_TRIANGLE}")
    return bary


def first_singular(coords):
    """Index of the first singular `BarycentricMap` in the stack `coords`, or its length."""
    for i, xy in enumerate(coords):
        try:
            BarycentricMap(xy)
        except np.linalg.LinAlgError:
            return i
    return len(coords)


def _passed(ok):
    """The number of leading True entries of `ok`."""
    return len(ok) if ok.all() else int(np.argmin(ok))


def _term_tables():
    """Exponents and integer weights of the Bernstein terms of DEGREE.

    Along the term axis, row 0 holds the value of basis function b,
    cmb lam^e; rows 1-3 its first lambda-derivative terms
    cmb e_m lam^(e - 1_m), m = 0, 1, 2; rows 4-12 its second ones
    cmb e_m (e - 1_m)_n lam^(e - 1_m - 1_n), with (m, n) in m-major order.
    A term of weight zero keeps exponent 0 in place of a negative one.

    Returns read-only arrays: `rows` (3, 13, nb), the row of lam_m^exponent
    in the (3 (DEGREE + 1), nq) table of powers; `weights` (13, nb); and
    `first`, `second` (9, 3), the entries of the flattened (3, 2)
    grad_lambda that multiply the (xx, xy, yy) Hessian terms.
    """
    E = np.array([(i, j, DEGREE - i - j)
                  for i in range(DEGREE, -1, -1) for j in range(DEGREE - i, -1, -1)])
    cmb = np.array([
        math.factorial(DEGREE)
        // (math.factorial(e[0]) * math.factorial(e[1]) * math.factorial(e[2]))
        for e in E
    ])
    unit = np.eye(3, dtype=int)
    lowered = E[None, :, :] - unit[:, None, :]               # e - 1_m
    grad_w = cmb[None, :] * E.T                               # cmb e_m
    hess_m, hess_n = np.divmod(np.arange(9), 3)
    hess_w = grad_w[hess_m] * lowered[hess_m, :, hess_n]     # cmb e_m (e - 1_m)_n
    hess_exp = lowered[hess_m] - unit[hess_n][:, None, :]
    exps = np.concatenate([E[None], lowered, hess_exp]).clip(min=0)
    rows = (np.arange(3) * (DEGREE + 1) + exps).transpose(2, 0, 1)
    weights = np.concatenate([cmb[None], grad_w, hess_w]).astype(float)
    first = 2 * hess_m[:, None] + np.array([0, 0, 1])
    second = 2 * hess_n[:, None] + np.array([0, 1, 1])
    tables = (rows, weights, first, second)
    for a in tables:
        a.flags.writeable = False
    return tables


_ROWS, _WEIGHTS, _FIRST, _SECOND = _term_tables()


def eval_scalar_basis(bary, pts, order=2):
    """Bernstein basis values and, up to `order`, gradients and Hessians at points.

    `bary` is the `BarycentricMap` of a stack of triangles, and `pts` holds
    points (..., [extra axes], nq, 2) as the map takes them; a single
    triangle is a stack with no leading axis.

    Returns C-contiguous (val (..., nq, nb), grad (..., nq, nb, 2),
    hess (..., nq, nb, 3)) with the Hessian stored as (xx, xy, yy); an
    output above `order` (0: values, 1: and gradients, 2: and Hessians)
    is not computed and comes back as None.  Only the term rows of
    `_term_tables` that the kept outputs use are gathered: row 0 for
    order 0, rows 0-3 for order 1, all 13 for order 2.  Each term is
    formed from lambda powers built by repeated multiplication, as
    ((cmb * p0) * p1) * p2 for the value and as
    w * ((p0 * p1) * p2) * grad_lambda[m, .] (* grad_lambda[n, .]) for the
    derivatives.  The derivative terms of one entry are summed in table
    order starting from +0.0, so an entry whose terms are all -0.0 reads
    +0.0.  Every operation and its order are those of a loop over basis
    functions that accumulates into zeros, and all of them are elementwise
    over the stack, so the tables equal that loop's on each triangle alone
    bit for bit, whatever the order.
    """
    n_terms = (1, 4, 13)[order]
    lam = bary(pts)
    lead, nq = lam.shape[:-2], lam.shape[-2]
    glam = bary.grad.reshape(bary.grad.shape[:-2]
                             + (1,) * (lam.ndim - bary.grad.ndim) + (3, 2))
    glam = np.broadcast_to(glam, lead + (3, 2)).reshape(-1, 3, 2)
    lam = lam.reshape(-1, nq, 3)
    # pw[m, a] = lam[..., m] ** a, (3, DEGREE + 1, ne, nq) for ne stacked triangles
    pw = np.empty((3, DEGREE + 1) + lam.shape[:2])
    pw[:, 0] = 1.0
    for a in range(1, DEGREE + 1):
        pw[:, a] = pw[:, a - 1] * lam.transpose(2, 0, 1)
    # (n_terms, nb, ne, nq)
    p0, p1, p2 = pw.reshape((3 * (DEGREE + 1),) + lam.shape[:2])[_ROWS[:, :n_terms]]
    w = _WEIGHTS[:n_terms, :, None, None]
    val = ((w[0] * p0[0]) * p1[0]) * p2[0]
    nb = val.shape[0]
    # C order: matrix products on transposed views take another BLAS path,
    # which changes the last bits of every element matrix built from these
    out = [np.ascontiguousarray(val.transpose(1, 2, 0)).reshape(lead + (nq, nb))]
    if order >= 1:
        terms = w[1:] * ((p0[1:] * p1[1:]) * p2[1:])
        gl = glam.transpose(1, 2, 0)[:, :, None, :, None]               # (3, 2, 1, ne, 1)
        grad = (terms[:3, None] * gl).sum(axis=0, initial=0.0)
        out.append(np.ascontiguousarray(grad.transpose(2, 3, 1, 0)).reshape(lead + (nq, nb, 2)))
    if order >= 2:
        g = glam.reshape(-1, 6).T
        hess = ((terms[3:, None] * g[_FIRST][:, :, None, :, None])
                * g[_SECOND][:, :, None, :, None]).sum(axis=0, initial=0.0)
        out.append(np.ascontiguousarray(hess.transpose(2, 3, 1, 0)).reshape(lead + (nq, nb, 3)))
    return tuple(out) + (None,) * (2 - order)
