import numpy as np
import pytest

from oracles import element_means
from plate_dpg import manufactured
from plate_dpg.manufactured import (
    ExactSolution,
    g0,
    g1,
    g2,
    g4,
    l2_errors,
    verify_manufactured,
)
from plate_dpg.mesh import mesh_at_level
from plate_dpg.quadrature import map_to_triangles, triangle_rule


def test_profile_values():
    assert g0(0.5) == 1.0 / 64.0
    assert g2(0.5) == -0.375
    assert g4(0.5) == 18.0
    # the profile and its even derivatives vanish at both interval ends
    for s in (0.0, 1.0):
        assert g0(s) == 0.0
        assert g1(s) == 0.0
        assert g2(s) == 0.0


def test_rotation_vanishes_at_center():
    ex = ExactSolution(0.0)
    px, py = ex.psi(0.5, 0.5)
    assert px == 0.0 and py == 0.0


def test_center_values():
    ex = ExactSolution(0.01)
    m11, m12, m22 = ex.M(0.5, 0.5)
    assert abs(m11 + 1.953125e-3) < 1e-18
    assert m12 == 0.0
    assert abs(m22 + 1.953125e-3) < 1e-18
    assert abs(ex.f(0.5, 0.5) + 0.28125) < 1e-16
    assert abs(ex.phi(0.5, 0.5) + 1.0 / 12288.0) < 1e-19
    assert abs(ex.lap_phi(0.5, 0.5) - 3.90625e-3) < 1e-17
    assert abs(ex.u(0.5, 0.5) + 8.177083333333333e-5) < 1e-16


def test_boundary_values_exact_zero():
    ex = ExactSolution(0.37)
    s = np.linspace(0.0, 1.0, 17)
    for px, py in ((s, np.zeros_like(s)), (np.ones_like(s), s),
                   (s, np.ones_like(s)), (np.zeros_like(s), s)):
        assert np.all(ex.u(px, py) == 0.0)
        m11, m12, m22 = ex.M(px, py)
        # each moment component that enters M n vanishes identically
        assert np.all(m12 == 0.0)
        if np.all(py == 0.0) or np.all(py == 1.0):
            assert np.all(m22 == 0.0)
        else:
            assert np.all(m11 == 0.0)


@pytest.mark.parametrize("t", [0.0, 1e-4, 1e-2])
def test_strong_form_residuals(t):
    report = verify_manufactured(t)
    assert report["p1"] <= 1e-6
    assert report["p2"] <= 1e-8
    assert report["p3"] <= 1e-8
    assert report["bc_u"] <= 1e-14
    assert report["bc_Mn"] <= 1e-14
    assert report["div_M_consistency"] <= 1e-6


def test_closed_forms_mutually_consistent():
    # finite differences tie phi to psi, M, and f
    ex = ExactSolution(0.0)
    rng = np.random.default_rng(11)
    x, y = rng.uniform(0.05, 0.95, size=(2, 100))
    h = 1e-5

    gx = (ex.phi(x + h, y) - ex.phi(x - h, y)) / (2 * h)
    gy = (ex.phi(x, y + h) - ex.phi(x, y - h)) / (2 * h)
    px, py = ex.psi(x, y)
    assert np.abs(gx - px).max() < 1e-6
    assert np.abs(gy - py).max() < 1e-6

    hxx = (ex.phi(x + h, y) - 2 * ex.phi(x, y) + ex.phi(x - h, y)) / h**2
    hyy = (ex.phi(x, y + h) - 2 * ex.phi(x, y) + ex.phi(x, y - h)) / h**2
    hxy = (ex.phi(x + h, y + h) - ex.phi(x + h, y - h)
           - ex.phi(x - h, y + h) + ex.phi(x - h, y - h)) / (4 * h**2)
    m11, m12, m22 = ex.M(x, y)
    assert np.abs(hxx + m11).max() < 1e-5
    assert np.abs(hxy + m12).max() < 1e-5
    assert np.abs(hyy + m22).max() < 1e-5

    lxx = (ex.lap_phi(x + h, y) - 2 * ex.lap_phi(x, y) + ex.lap_phi(x - h, y)) / h**2
    lyy = (ex.lap_phi(x, y + h) - 2 * ex.lap_phi(x, y) + ex.lap_phi(x, y - h)) / h**2
    assert np.abs((lxx + lyy) - ex.f(x, y)).max() < 1e-5


def test_thickness_enters_only_through_lap_phi():
    rng = np.random.default_rng(12)
    x, y = rng.uniform(0.0, 1.0, size=(2, 50))
    t1, t2 = 0.3, 0.05
    e1, e2 = ExactSolution(t1), ExactSolution(t2)
    lap = e1.lap_phi(x, y)
    assert np.abs((e1.u(x, y) - e2.u(x, y)) - (t2**2 - t1**2) * lap).max() < 1e-13
    assert np.array_equal(e1.M(x, y), e2.M(x, y))
    assert np.array_equal(e1.f(x, y), e2.f(x, y))
    g1x, g1y = e1.grad_u(x, y)
    g2x, g2y = e2.grad_u(x, y)
    qx, qy = e1.grad_lap_phi(x, y)
    assert np.abs((g1x - g2x) - (t2**2 - t1**2) * qx).max() < 1e-13
    assert np.abs((g1y - g2y) - (t2**2 - t1**2) * qy).max() < 1e-13


def test_rotation_is_deflection_gradient():
    ex = ExactSolution(0.02)
    x, y = np.array([0.21]), np.array([0.68])
    assert np.array_equal(ex.theta(x, y), ex.grad_u(x, y))


def test_errors_of_means_match_independent_quadrature():
    mesh = mesh_at_level(1)
    t = 0.01
    u_el, M_el, th_el = element_means(mesh, t)
    err_u, err_M, err_th = l2_errors(mesh, u_el, M_el, th_el, t)

    # independent oracle: accumulate |field - mean|^2 with a fresh rule
    ex = ExactSolution(t)
    rule = triangle_rule(18)
    acc_u = 0.0
    acc_M = 0.0
    for ti in range(mesh.num_triangles):
        (pts,), (w,) = map_to_triangles(rule, mesh.vertices[mesh.triangles[ti]][None])
        x, y = pts[:, 0], pts[:, 1]
        acc_u += w @ (ex.u(x, y) - u_el[ti]) ** 2
        m = ex.M(x, y)
        for c, wt in ((0, 1.0), (1, 2.0), (2, 1.0)):
            acc_M += wt * (w @ (m[c] - M_el[ti, c]) ** 2)
    assert abs(err_u - np.sqrt(acc_u)) < 1e-12 * err_u
    assert abs(err_M - np.sqrt(acc_M)) < 1e-12 * err_M


def test_error_quadrature_self_consistent(monkeypatch):
    mesh = mesh_at_level(1)
    nt = mesh.num_triangles
    zero_u = np.zeros(nt)
    zero_M = np.zeros((nt, 3))

    def errors_at(degree):
        monkeypatch.setattr(manufactured, "L2_QUAD_DEGREE", degree)
        return l2_errors(mesh, zero_u, zero_M, None, 0.01)

    # squared exact fields have degree 24, so low rules are approximate:
    # degree 12 is good to ~1e-9 relative, 16 vs 18 to ~1e-12
    assert manufactured.L2_QUAD_DEGREE == 16
    a, b, c = errors_at(12), errors_at(16), errors_at(18)
    assert abs(a[0] - b[0]) < 5e-9 * b[0]
    assert abs(a[1] - b[1]) < 5e-9 * b[1]
    assert abs(b[0] - c[0]) < 1e-12 * c[0]
    assert abs(b[1] - c[1]) < 1e-12 * c[1]


def test_zero_theta_error_at_t_zero():
    mesh = mesh_at_level(0)
    u_el, M_el, _ = element_means(mesh, 0.0)
    _, _, err_th = l2_errors(mesh, u_el, M_el, None, 0.0)
    assert err_th == 0.0


def test_negative_thickness_rejected():
    with pytest.raises(ValueError):
        ExactSolution(-1.0)
