"""Quadrature rules on the reference triangle and the unit interval.

Triangle rules are conical products of Gauss-Legendre and Gauss-Jacobi
(weight 1-y) rules pushed through the Duffy map, so all weights are
positive and the declared exactness degree is certified rather than
transcribed from a table.  Edge rules are plain Gauss-Legendre on [0, 1].
The geometry the rules map with lives here once: the triangle Jacobian,
the points of a segment and the edge successor NEXT.
"""

import numpy as np
from scipy.special import roots_jacobi

# reference triangle: vertices (0,0), (1,0), (0,1)
MAX_TRIANGLE_DEGREE = 20
MAX_EDGE_DEGREE = 21
# edge k of a triangle runs from vertex k to vertex NEXT[k]
NEXT = [1, 2, 0]


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
    # the n-point Gauss-Legendre rule on [0, 1], n the smallest with 2n-1 >= degree
    gauss = edge_rule(degree)
    xi, wxi, n = gauss.points, gauss.weights, len(gauss.points)
    xj, wj = roots_jacobi(n, 1.0, 0.0)
    eta = 0.5 * (xj + 1.0)
    weta = 0.25 * wj
    # point j * n + i pairs xi[i] with eta[j]
    pts = np.stack([np.outer(1.0 - eta, xi).ravel(), np.repeat(eta, n)], axis=1)
    return QuadRule(pts, np.outer(weta, wxi).ravel(), 2 * n - 1)


def edge_rule(degree):
    """Gauss rule on [0, 1] exact for degree <= `degree`; weights sum to 1."""
    if not 0 <= degree <= MAX_EDGE_DEGREE:
        raise ValueError(f"edge rules cover degrees 0..{MAX_EDGE_DEGREE}")
    n = max((degree + 2) // 2, 1)
    xg, wg = np.polynomial.legendre.leggauss(n)
    return QuadRule(0.5 * (xg + 1.0), 0.5 * wg, 2 * n - 1)


def triangle_jacobians(coords):
    """Edges d1 = v1 - v0, d2 = v2 - v0 of the triangles `coords` (ne, 3, 2), and det [d1 d2]."""
    d1 = coords[:, 1] - coords[:, 0]
    d2 = coords[:, 2] - coords[:, 0]
    return d1, d2, d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]


def map_to_triangles(rule, coords):
    """Push a reference-triangle rule to every triangle of `coords` (ne, 3, 2).

    Returns (points (ne, nq, 2), weights (ne, nq)).  Every operation is
    elementwise, so each triangle gets the bits it gets on its own.  No
    triangle is checked: callers pass those `testspace.triangle_gate` passed.
    """
    coords = np.asarray(coords, dtype=float)
    d1, d2, jac = triangle_jacobians(coords)
    ref = rule.points[:, :, None]
    pts = coords[:, None, 0] + ref[:, 0] * d1[:, None] + ref[:, 1] * d2[:, None]
    return pts, rule.weights * jac[:, None]


def segment_points(p, q, s):
    """Points p + s (q - p) of the segments p-q, given as (..., 2) endpoints: (..., ns, 2)."""
    return p[..., None, :] + s[:, None] * (q - p)[..., None, :]


def map_to_edge(rule, p0, p1):
    """Push an interval rule to the segments p0-p1, given as (..., 2) endpoints.

    Returns (points (..., nq, 2), weights (..., nq)); weights sum to each
    segment's length.  Every operation is elementwise, so each segment gets
    the bits it gets on its own.
    """
    p0, p1 = np.asarray(p0, dtype=float), np.asarray(p1, dtype=float)
    d = p1 - p0
    pts = segment_points(p0, p1, rule.points)
    return pts, rule.weights * np.hypot(d[..., 0], d[..., 1])[..., None]
