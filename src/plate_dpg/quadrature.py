"""Quadrature rules on the reference triangle and the unit interval.

Triangle rules are conical products of Gauss-Legendre and Gauss-Jacobi
(weight 1-y) rules pushed through the Duffy map, so all weights are
positive and the declared exactness degree is that of the two factors.
The Gauss-Jacobi factors are the table GAUSS_JACOBI, so the package
imports no special-function module.  Edge rules are plain Gauss-Legendre
on [0, 1].
The geometry the rules map with lives here once: the triangle Jacobian,
the points of a segment and the edge successor NEXT.
"""

import numpy as np

# reference triangle: vertices (0,0), (1,0), (0,1)
MAX_TRIANGLE_DEGREE = 20
MAX_EDGE_DEGREE = 21
# edge k of a triangle runs from vertex k to vertex NEXT[k]
NEXT = [1, 2, 0]

# Gauss-Jacobi rules on [-1, 1] for the weight (1 - x)^1 (1 + x)^0, as
# (points, weights) for n = 1..11 points: the doubles that SciPy 1.17.1's
# roots_jacobi(n, 1.0, 0.0) returns, written as their repr, which parses
# back to the same bits (tests/oracles.py::triangle_rule_loop still calls
# roots_jacobi, and tests/test_quadrature.py compares the two rules).
GAUSS_JACOBI = (
    # n = 1
    ((-0.3333333333333333,),
     (2.0,)),
    # n = 2
    ((-0.6898979485566357, 0.2898979485566358),
     (1.2721655269759087, 0.7278344730240913)),
    # n = 3
    ((-0.8228240809745921, -0.1810662711185305, 0.5753189235216941),
     (0.8037276549558384, 0.9169644254383448, 0.2793079196058167)),
    # n = 4
    ((-0.8857916077709646, -0.44631397272375245, 0.16718086473783364, 0.7204802713124389),
     (0.5420276537259541, 0.8138582720410844, 0.5193901904329293, 0.12472388380003234)),
    # n = 5
    ((-0.9203802858970626, -0.6039731642527836, -0.1240503795052277, 0.39092854670727223,
      0.8029298284023472),
     (0.3871263609066059, 0.6686985523774788, 0.5855479483386794, 0.2956354802904667,
      0.0629916580867692)),
    # n = 6
    ((-0.9413671456804301, -0.7038428006630314, -0.3260306194376914, 0.1173430375431003,
      0.538467724060109, 0.8538913426394822),
     (0.2892413229020356, 0.5421699889260747, 0.5631702151527953, 0.3946446035626208,
      0.17582066220203585, 0.034953207254438116)),
    # n = 7
    ((-0.955041227122575, -0.7706418936781917, -0.4684203544308209, -0.09430725266111074,
      0.2947505657736607, 0.6395186165262152, 0.8874748789261557),
     (0.22386945369396347, 0.4420370327634976, 0.5095635891983541, 0.42850026278349523,
      0.2655387858619663, 0.10963342688749395, 0.020857448811229563)),
    # n = 8
    ((-0.9644401697052731, -0.817352784200412, -0.5713830412087385, -0.2561356708334554,
      0.09037336960685335, 0.4263504857111389, 0.7112674859157089, 0.9107320894200603),
     (0.17820321744622417, 0.3644760945454951, 0.4500231978835482, 0.42418943774372003,
      0.31679839796927683, 0.18175727801879568, 0.0713716106239449, 0.013180765768995064)),
    # n = 9
    ((-0.9711751807022471, -0.8512252205816078, -0.6477666876740094, -0.3806648401447244,
      -0.07605919783797811, 0.23623446939058804, 0.5256460303700793, 0.7638420424200026,
      0.9274843742335811),
     (0.14511201409311436, 0.30429702043723433, 0.3941349686893839, 0.40123523677347395,
      0.33743328737968203, 0.23360478118066105, 0.1272192859642162, 0.04824001713914158,
      0.008723388343092527)),
    # n = 10
    ((-0.9761647731351688, -0.8765358562457037, -0.7057771007138595, -0.4776806479830877,
      -0.21072030622842625, 0.0734775314313213, 0.3518889233533302, 0.6019578420737977,
      0.8034219755802935, 0.939941935677027),
     (0.12039803209614727, 0.257148618036331, 0.3448452011567048, 0.37078757471089296,
      0.33822843876330927, 0.26421230225340164, 0.1736076256286026, 0.09109836581305221,
      0.033677279131932865, 0.005996562409625539)),
    # n = 11
    ((-0.9799634390766392, -0.8959290977456389, -0.7507615497111139, -0.5543187859123242,
      -0.3199836841706695, -0.06372477382083189, 0.1969945595342783, 0.4444065697819358,
      0.6616497992456372, 0.8339167731051897, 0.9494527592049593),
     (0.10146936275256571, 0.21975236453148633, 0.3024801922287482, 0.3386376915360707,
      0.32751641195225384, 0.2781275006327321, 0.20636544268919016, 0.13056618685533333,
      0.06665449380672281, 0.024175683841919142, 0.0042546691729781405)),
)


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
    xj, wj = map(np.array, GAUSS_JACOBI[n - 1])
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
