"""Quadrature rules on the reference triangle and the unit interval.

Triangle rules are conical products of Gauss-Legendre and Gauss-Jacobi
(weight 1-y) rules pushed through the Duffy map, so all weights are
positive and the declared exactness degree is certified rather than
transcribed from a table.  Edge rules are plain Gauss-Legendre on [0, 1].
"""

import numpy as np
from scipy.special import roots_jacobi

# reference triangle: vertices (0,0), (1,0), (0,1)
MAX_TRIANGLE_DEGREE = 20
MAX_EDGE_DEGREE = 21
# largest vertex coordinate of a mapped triangle: below it no product of two
# coordinate differences overflows; above it the squares of the coordinates
# do (the triangle (0, 0), (1, 0), (1e200, 1e200) ended in a singular
# barycentric inverse of its HCT split)
COORD_MAX = np.sqrt(np.finfo(float).max) / 8


class QuadRule:
    """Points, weights, and the polynomial degree integrated exactly."""

    def __init__(self, points, weights, degree):
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.degree = degree
        if np.any(self.weights <= 0.0):
            raise ValueError("quadrature weights must be positive")


def triangle_rule(degree):
    """Rule on the reference triangle exact for total degree <= `degree`.

    Weights sum to the reference area 1/2.  The conical product with n
    one-dimensional points per direction is exact through degree 2n - 1,
    which is what the returned rule declares.
    """
    if not 0 <= degree <= MAX_TRIANGLE_DEGREE:
        raise ValueError(f"triangle rules cover degrees 0..{MAX_TRIANGLE_DEGREE}")
    n = max((degree + 2) // 2, 1)  # smallest n with 2n-1 >= degree
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
    return QuadRule(pts, wts, 2 * n - 1)


def edge_rule(degree):
    """Gauss rule on [0, 1] exact for degree <= `degree`; weights sum to 1."""
    if not 0 <= degree <= MAX_EDGE_DEGREE:
        raise ValueError(f"edge rules cover degrees 0..{MAX_EDGE_DEGREE}")
    n = max((degree + 2) // 2, 1)
    xg, wg = np.polynomial.legendre.leggauss(n)
    return QuadRule(0.5 * (xg + 1.0), 0.5 * wg, 2 * n - 1)


def map_to_triangle(rule, coords):
    """Push a reference-triangle rule to the physical triangle `coords`.

    Returns (points (nq, 2), weights (nq,)); weights sum to the triangle area.
    """
    pts, w = map_to_triangles(rule, np.asarray(coords, dtype=float)[None])
    return pts[0], w[0]


def map_to_triangles(rule, coords):
    """Push a reference-triangle rule to every triangle of `coords` (ne, 3, 2).

    Returns (points (ne, nq, 2), weights (ne, nq)).  Every operation is
    elementwise, so each triangle gets the bits it gets on its own.  A
    triangle with a coordinate that is not finite or above COORD_MAX in
    magnitude is rejected before any arithmetic, on which inf would warn,
    and one whose Jacobian is not > 0 (clockwise or degenerate) after it.
    """
    coords = np.asarray(coords, dtype=float)
    if not (np.abs(coords) <= COORD_MAX).all():  # NaN fails it too
        raise ValueError("triangle must be CCW and non-degenerate")
    d1 = coords[:, 1] - coords[:, 0]
    d2 = coords[:, 2] - coords[:, 0]
    jac = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    if not (jac > 0.0).all():
        raise ValueError("triangle must be CCW and non-degenerate")
    ref = rule.points[:, :, None]
    pts = coords[:, None, 0] + ref[:, 0] * d1[:, None] + ref[:, 1] * d2[:, None]
    return pts, rule.weights * jac[:, None]


def map_to_edge(rule, p0, p1):
    """Push an interval rule to the segments p0-p1, given as (..., 2) endpoints.

    Returns (points (..., nq, 2), weights (..., nq)); weights sum to each
    segment's length.  Every operation is elementwise, so each segment gets
    the bits it gets on its own.
    """
    p0 = np.asarray(p0, dtype=float)
    d = np.asarray(p1, dtype=float) - p0
    pts = p0[..., None, :] + rule.points[:, None] * d[..., None, :]
    return pts, rule.weights * np.hypot(d[..., 0], d[..., 1])[..., None]
