"""Broken polynomial test space on a single triangle.

Scalar shape functions are Bernstein polynomials of the barycentric
coordinates of the physical triangle.  A test function is a 4-tuple
(z, Theta, tau) with scalar z, symmetric 2x2 tensor Theta stored as
(11, 12, 22), and vector tau; each component is spanned by the same
scalar basis, giving 6 * n_scalar local degrees of freedom.  For the
degenerate thickness t = 0 the tau block is dropped from the layout.
"""

import functools
import math

import numpy as np

MIN_DEGREE, MAX_DEGREE = 2, 5


def scalar_basis_size(degree):
    return (degree + 1) * (degree + 2) // 2


def _multi_indices(degree):
    out = []
    for i in range(degree, -1, -1):
        for j in range(degree - i, -1, -1):
            out.append((i, j, degree - i - j))
    return out


class BarycentricMap:
    """Affine barycentric map of one triangle, inverted once.

    Calling the map sends (nq, 2) points to (nq, 3) barycentric
    coordinates; `grad` is the constant (3, 2) array of their gradients.
    Every table of one triangle can share one map, so the 3x3 inverse is
    taken once per triangle, not once per table.
    """

    def __init__(self, coords):
        coords = np.asarray(coords, dtype=float)
        A = np.vstack([coords.T, np.ones(3)])
        self._Ainv = np.linalg.inv(A)
        self.grad = self._Ainv[:, :2].copy()

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return pts @ self._Ainv[:, :2].T + self._Ainv[:, 2]


@functools.lru_cache(maxsize=None)
def _term_tables(degree):
    """Exponents and integer weights of the Bernstein terms of one degree.

    Along the term axis, row 0 holds the value of basis function b,
    cmb lam^e; rows 1-3 its first lambda-derivative terms
    cmb e_m lam^(e - 1_m), m = 0, 1, 2; rows 4-12 its second ones
    cmb e_m (e - 1_m)_n lam^(e - 1_m - 1_n), with (m, n) in m-major order.
    A term of weight zero keeps exponent 0 in place of a negative one.

    Returns read-only arrays: `rows` (3, 13, nb), the row of lam_m^exponent
    in the (3 (degree + 1), nq) table of powers; `weights` (13, nb); and
    `first`, `second` (9, 3), the entries of the flattened (3, 2)
    grad_lambda that multiply the (xx, xy, yy) Hessian terms.
    """
    E = np.array(_multi_indices(degree))
    cmb = np.array([
        math.factorial(degree)
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
    rows = (np.arange(3) * (degree + 1) + exps).transpose(2, 0, 1)
    weights = np.concatenate([cmb[None], grad_w, hess_w]).astype(float)
    first = 2 * hess_m[:, None] + np.array([0, 0, 1])
    second = 2 * hess_n[:, None] + np.array([0, 1, 1])
    tables = (rows, weights, first, second)
    for a in tables:
        a.flags.writeable = False
    return tables


def eval_scalar_basis(tri, pts, degree=3):
    """Bernstein basis values, gradients, and Hessians at points.

    `tri` is the triangle's (3, 2) vertex array or its `BarycentricMap`.

    Returns C-contiguous (val (nq, nb), grad (nq, nb, 2), hess (nq, nb, 3))
    with the Hessian stored as (xx, xy, yy).  Each term of `_term_tables`
    is formed from lambda powers built by repeated multiplication, as
    ((cmb * p0) * p1) * p2 for the value and as
    w * ((p0 * p1) * p2) * grad_lambda[m, .] (* grad_lambda[n, .]) for the
    derivatives.  The derivative terms of one entry are summed in table
    order starting from +0.0, so an entry whose terms are all -0.0 reads
    +0.0.  Every operation and its order are those of a loop over basis
    functions that accumulates into zeros, so the tables equal that loop's
    bit for bit.
    """
    if not MIN_DEGREE <= degree <= MAX_DEGREE:
        raise ValueError(f"test-space degree must be in [{MIN_DEGREE}, {MAX_DEGREE}]")
    rows, weights, first, second = _term_tables(degree)
    bary = tri if isinstance(tri, BarycentricMap) else BarycentricMap(tri)
    glam = bary.grad
    lam = bary(pts)
    # pw[m, a] = lam[:, m] ** a
    pw = np.empty((3, degree + 1, lam.shape[0]))
    pw[:, 0] = 1.0
    for a in range(1, degree + 1):
        pw[:, a] = pw[:, a - 1] * lam.T
    p0, p1, p2 = pw.reshape(3 * (degree + 1), -1)[rows]     # each (13, nb, nq)
    val = ((weights[0, :, None] * p0[0]) * p1[0]) * p2[0]
    terms = weights[1:, :, None] * ((p0[1:] * p1[1:]) * p2[1:])
    grad = (terms[:3, None] * glam[:, :, None, None]).sum(axis=0, initial=0.0)
    g = glam.ravel()
    hess = ((terms[3:, None] * g[first][:, :, None, None])
            * g[second][:, :, None, None]).sum(axis=0, initial=0.0)
    # C order: matrix products on transposed views take another BLAS path,
    # which changes the last bits of every element matrix built from these
    return (np.ascontiguousarray(val.T), np.ascontiguousarray(grad.transpose(2, 1, 0)),
            np.ascontiguousarray(hess.transpose(2, 1, 0)))


class BrokenTestBasis:
    """Degree-of-freedom layout of the broken test space on one element.

    Blocks are ordered (z, Theta11, Theta12, Theta22, tau1, tau2), each of
    size n_scalar; at t = 0 the two tau blocks are absent.
    """

    def __init__(self, degree=3):
        if not MIN_DEGREE <= degree <= MAX_DEGREE:
            raise ValueError(f"test-space degree must be in [{MIN_DEGREE}, {MAX_DEGREE}]")
        self.degree = degree
        self.n_scalar = scalar_basis_size(degree)

    def n_components(self, t):
        return 6 if t > 0.0 else 4

    def n_test(self, t):
        return self.n_components(t) * self.n_scalar

    def block(self, comp):
        """Slice of component `comp` in (z, th11, th12, th22, tau1, tau2)."""
        ns = self.n_scalar
        return slice(comp * ns, (comp + 1) * ns)

    def tables(self, tri, pts):
        """Scalar basis tables at `pts` for the triangle `tri` (vertices or map)."""
        return eval_scalar_basis(tri, pts, self.degree)
