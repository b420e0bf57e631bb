import numpy as np
import pytest

from oracles import triangle_rule_loop
from plate_dpg.quadrature import (
    MAX_EDGE_DEGREE,
    MAX_TRIANGLE_DEGREE,
    QuadRule,
    edge_rule,
    map_to_edge,
    map_to_triangles,
    triangle_rule,
)

def tri_monomial_exact(a, b):
    # integral of x^a y^b over the reference triangle
    from math import factorial

    return factorial(a) * factorial(b) / factorial(a + b + 2)


def test_constant_integrates_to_area():
    rule = triangle_rule(1)
    assert abs(rule.weights.sum() - 0.5) < 1e-15


def test_linear_monomial():
    rule = triangle_rule(2)
    val = rule.weights @ rule.points[:, 0]
    assert abs(val - 1.0 / 6.0) < 1e-15


def test_quadratic_monomial():
    rule = triangle_rule(4)
    val = rule.weights @ rule.points[:, 0] ** 2
    assert abs(val - 1.0 / 12.0) < 1e-15


def test_triangle_exactness_sweep():
    for degree in range(1, MAX_TRIANGLE_DEGREE + 1):
        rule = triangle_rule(degree)
        for a in range(rule.degree + 1):
            for b in range(rule.degree + 1 - a):
                got = rule.weights @ (rule.points[:, 0] ** a * rule.points[:, 1] ** b)
                exact = tri_monomial_exact(a, b)
                assert abs(got - exact) <= 1e-13 * abs(exact), (degree, a, b)


def test_triangle_rules_not_silently_overexact():
    # two degrees past the declared exactness some monomial must miss,
    # otherwise the sweep above tests nothing
    for degree in (2, 6, 14):
        rule = triangle_rule(degree)
        d = rule.degree + 2
        errs = []
        for a in range(d + 1):
            exact = tri_monomial_exact(a, d - a)
            got = rule.weights @ (rule.points[:, 0] ** a * rule.points[:, 1] ** (d - a))
            errs.append(abs(got - exact) / exact)
        assert max(errs) > 1e-13


@pytest.mark.parametrize("degree", range(MAX_TRIANGLE_DEGREE + 1))
def test_triangle_rule_has_the_bits_of_the_point_loop(degree):
    rule = triangle_rule(degree)
    pts, wts = triangle_rule_loop(degree)
    for got, want in ((rule.points, pts), (rule.weights, wts)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_positive_weights():
    for degree in range(1, MAX_TRIANGLE_DEGREE + 1):
        assert np.all(triangle_rule(degree).weights > 0.0)
    for degree in range(1, MAX_EDGE_DEGREE + 1):
        assert np.all(edge_rule(degree).weights > 0.0)


def test_edge_midpoint_rule():
    rule = edge_rule(1)
    assert rule.points.shape[0] == 1
    assert abs(rule.weights.sum() - 1.0) < 1e-15


def test_edge_two_point_cubic():
    rule = edge_rule(3)
    assert rule.points.shape[0] == 2
    val = rule.weights @ rule.points**3
    assert abs(val - 0.25) < 1e-15


def test_edge_four_point_degree_six():
    rule = edge_rule(7)
    assert rule.points.shape[0] == 4
    val = rule.weights @ rule.points**6
    assert abs(val - 1.0 / 7.0) < 1e-14


def test_edge_exactness_sweep():
    for degree in range(1, MAX_EDGE_DEGREE + 1):
        rule = edge_rule(degree)
        for p in range(rule.degree + 1):
            got = rule.weights @ rule.points**p
            assert abs(got - 1.0 / (p + 1)) <= 1e-13 / (p + 1), (degree, p)
        over = rule.degree + 2
        got = rule.weights @ rule.points**over
        assert abs(got - 1.0 / (over + 1)) > 1e-13 / (over + 1)


def test_degree_exceeds_table():
    with pytest.raises(ValueError):
        triangle_rule(MAX_TRIANGLE_DEGREE + 1)
    with pytest.raises(ValueError):
        edge_rule(MAX_EDGE_DEGREE + 1)


def test_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        QuadRule(np.zeros((1, 2)), np.array([-1.0]), 1)


def test_map_to_triangle_weights_sum_to_area():
    coords = np.array([[0.2, 0.1], [1.4, 0.3], [0.5, 1.9]])
    (pts,), (w,) = map_to_triangles(triangle_rule(5), coords[None])
    d1, d2 = coords[1] - coords[0], coords[2] - coords[0]
    area = 0.5 * (d1[0] * d2[1] - d1[1] * d2[0])
    assert abs(w.sum() - area) < 1e-14
    # mapped quadrature integrates an affine function exactly
    got = w @ (2.0 * pts[:, 0] - 3.0 * pts[:, 1] + 1.0)
    centroid = coords.mean(axis=0)
    exact = area * (2.0 * centroid[0] - 3.0 * centroid[1] + 1.0)
    assert abs(got - exact) < 1e-14


def test_map_to_edge():
    p0, p1 = np.array([1.0, 2.0]), np.array([4.0, 6.0])
    pts, w = map_to_edge(edge_rule(5), p0, p1)
    assert abs(w.sum() - 5.0) < 1e-14
    assert np.allclose(pts[0], p0 + (p1 - p0) * edge_rule(5).points[0])
