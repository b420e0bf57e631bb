"""Acceptance gate: seven end-to-end checks on the assembled solver.

Each test prints one visible PASS/FAIL line so the suite output doubles
as the acceptance report.  The convergence study shared by criteria 2-4
runs once per session.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    HctScalarField,
    HctTriple,
    hct_elements,
    interpolate,
    random_triangle,
    trace_pair_edge,
)
from plate_dpg.dpg import (
    ElementKernel,
    ProblemConfig,
    b_field,
    b_trace,
    condense,
    gram,
)
from plate_dpg.driver import (
    MeshKernels,
    assemble_and_solve,
    constrained_traces,
    kirchhoff_limit_check,
    run_study,
)
from plate_dpg.hct import (
    build_hct_element,
    eval_hct,
    eval_on_parent_edges,
)
from plate_dpg.mesh import mesh_at_level

T_LIST = (1e-2, 1e-4, 1e-6, 1e-8)
LEVELS = 5


@pytest.fixture(scope="module")
def study():
    cfg = ProblemConfig(t=1e-2)
    start = time.perf_counter()
    records = run_study(list(T_LIST), LEVELS, cfg)
    return records, time.perf_counter() - start


def _verdict(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} ({name}): {detail}"


def _shaped_triangle(seed, min_quality=0.6):
    # shape-regular population, the kind uniform red refinement produces
    rng = np.random.default_rng(seed)
    while True:
        coords = rng.uniform(-1.0, 1.0, (3, 2))
        d1 = coords[1] - coords[0]
        d2 = coords[2] - coords[1]
        d3 = coords[0] - coords[2]
        area = 0.5 * (d1[0] * -d3[1] - d1[1] * -d3[0])
        if area <= 0.0:
            continue
        lmax = max(np.hypot(*d1), np.hypot(*d2), np.hypot(*d3))
        if 4.0 * area / (math.sqrt(3.0) * lmax * lmax) > min_quality:
            return coords


def test_criterion_1_manufactured_verify(run_cli, capsys):
    start = time.perf_counter()
    proc = run_cli(["verify"], timeout=120)
    elapsed = time.perf_counter() - start
    ok = proc.returncode == 0 and "verify: PASS" in proc.stdout and elapsed < 5.0
    _verdict(capsys, 1, "manufactured-solution verify", ok,
             f"exit={proc.returncode}, {elapsed:.2f}s")


def test_criterion_2_convergence(study, capsys):
    records, elapsed = study
    sub = sorted((r for r in records if r.t == 1e-2), key=lambda r: r.level)
    ok = len(sub) == LEVELS and elapsed < 300.0
    for prev, cur in zip(sub, sub[1:]):
        ok = ok and cur.err_u < prev.err_u
        ok = ok and cur.err_M < prev.err_M
        ok = ok and cur.err_theta < prev.err_theta
    last = sub[-1]
    ok = ok and min(last.rate_u, last.rate_M, last.rate_theta) >= 0.9
    _verdict(capsys, 2, "convergence at t=1e-2", ok,
             f"final rates u={last.rate_u:.2f} M={last.rate_M:.2f} "
             f"theta={last.rate_theta:.2f}, study {elapsed:.0f}s")


def test_criterion_3_locking_freeness(study, capsys):
    records, _ = study
    lvl = [r for r in records if r.level == 3]
    us = [r.err_u for r in lvl]
    ms = [r.err_M for r in lvl]
    spread_u = max(us) / min(us)
    spread_m = max(ms) / min(ms)
    ok = len(lvl) == len(T_LIST) and spread_u <= 2.0 and spread_m <= 2.0
    _verdict(capsys, 3, "thickness robustness at level 3", ok,
             f"err_u spread {spread_u:.3f}, err_M spread {spread_m:.3f}")


def test_criterion_4_estimator_ratio(study, capsys):
    records, _ = study

    def ratio(r):
        total = math.sqrt(r.err_u ** 2 + r.err_M ** 2 + r.t * r.err_theta ** 2)
        return total / r.eta

    ratios = {(r.level, r.t): ratio(r) for r in records}
    c1 = min(ratios.values())
    c2 = max(ratios.values())
    ok = c2 / c1 <= 10.0
    worst_tail = 1.0
    for t in T_LIST:
        a, b = ratios[(LEVELS - 2, t)], ratios[(LEVELS - 1, t)]
        worst_tail = max(worst_tail, max(a, b) / min(a, b))
    ok = ok and worst_tail < 2.0
    _verdict(capsys, 4, "error-to-estimator ratio", ok,
             f"ratio in [{c1:.3f}, {c2:.3f}], c2/c1={c2 / c1:.2f}, "
             f"finest-level drift {worst_tail:.3f}")


def test_criterion_5_bending_limit(capsys):
    out = kirchhoff_limit_check(level=3, t_sequence=(1e-1, 1e-2, 1e-3))
    ok = (out["monotone_u"] and out["monotone_M"]
          and out["identity_rel_err"] <= 1e-12)
    _verdict(capsys, 5, "zero-thickness limit", ok,
             f"monotone u={out['monotone_u']} M={out['monotone_M']}, "
             f"closed-form identity {out['identity_rel_err']:.2e}")


def test_criterion_6_structural_properties(capsys):
    start = time.perf_counter()
    ok = True
    notes = []

    # Gram matrices stay symmetric positive definite across thickness
    for k in range(50):
        coords = random_triangle(900 + k)
        kern = ElementKernel([coords])
        for t in (0.0, 1e-8, 1e-4, 1.0):
            G = gram(kern, t)[0]
            ok = ok and np.abs(G - G.T).max() == 0.0
            try:
                condense(G[None], np.zeros((1, len(G), 0)), np.zeros((1, len(G))))
            except Exception:
                ok = False
    notes.append("gram spd 50x4")

    # edge pairing is skew-symmetric in its two triples
    worst_skew = 0.0
    for k in range(10):
        coords = random_triangle(700 + k)
        a = HctTriple(coords, seed=800 + k)
        b = HctTriple(coords, seed=850 + k)
        for t in (0.0, 1e-4, 1.0):
            ab = trace_pair_edge(coords, a, b, t)
            ba = trace_pair_edge(coords, b, a, t)
            worst_skew = max(worst_skew,
                             abs(ab + ba) / max(abs(ab), abs(ba), 1e-30))
    ok = ok and worst_skew < 1e-10
    notes.append(f"skew {worst_skew:.1e}")

    # conforming trace against conforming test sums to zero over the mesh
    mesh = mesh_at_level(1)
    elements = hct_elements(mesh)
    nv = mesh.num_vertices
    worst_jump = 0.0
    for pair in range(10):
        if pair < 5:
            bc, t = "simply-supported", 1e-2
        elif pair < 8:
            bc, t = "simply-supported", 1e-6
        else:
            bc, t = "clamped", 0.0
        mask = constrained_traces(mesh, bc)
        rng = np.random.default_rng(4000 + pair)
        qhat = rng.standard_normal((nv, 4, 3))
        qhat[mask] = 0.0
        tdofs = rng.standard_normal((nv, 4, 3))
        tdofs[mask] = 0.0
        zf = HctScalarField(mesh, tdofs[:, 0].ravel())
        thf = [HctScalarField(mesh, tdofs[:, 1 + c].ravel()) for c in range(3)]
        tauf = [HctScalarField(mesh, rng.standard_normal(3 * nv))
                for _ in range(2)]
        total = 0.0
        scale = 0.0
        for ti in range(mesh.num_triangles):
            element = elements[ti]
            verts = mesh.triangles[ti]
            trace = HctTriple.from_dofs(
                element,
                qhat[verts, 0].ravel(),
                np.stack([qhat[verts, 1 + c].ravel() for c in range(3)]),
            )
            zd = zf.local_dofs(ti)
            thd = [f.local_dofs(ti) for f in thf]
            taud = [f.local_dofs(ti) for f in tauf]

            def test_gen(pts):
                z, gz, _ = eval_hct(element, pts, zd)
                th = [eval_hct(element, pts, d) for d in thd]
                Th = np.stack([th[0][0], th[1][0], th[2][0]], axis=1)
                dTh = np.stack(
                    [th[0][1][:, 0] + th[1][1][:, 1],
                     th[1][1][:, 0] + th[2][1][:, 1]], axis=1)
                tau = np.stack([eval_hct(element, pts, taud[0])[0],
                                eval_hct(element, pts, taud[1])[0]], axis=1)
                return z, gz, Th, dTh, tau

            pair_val = trace_pair_edge(mesh.vertices[mesh.triangles[ti]], trace,
                                       test_gen, t)
            total += pair_val
            scale += abs(pair_val)
        worst_jump = max(worst_jump, abs(total) / scale)
        ok = ok and abs(total) <= 1e-9 * scale
    notes.append(f"jump {worst_jump:.1e}")

    # scalar C1 element: nodal duality, global C1 glue, quadratic exactness
    coords = random_triangle(77)
    element = build_hct_element(coords)
    val, grad, _ = eval_hct(element, coords)
    dofmat = np.empty((9, 9))
    dofmat[:, 0::3] = val.T
    dofmat[:, 1::3] = grad[:, :, 0].T
    dofmat[:, 2::3] = grad[:, :, 1].T
    ok = ok and np.abs(dofmat - np.eye(9)).max() < 1e-11

    rng = np.random.default_rng(10)
    field = HctScalarField(mesh, rng.standard_normal(3 * nv))
    s = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    for e in range(len(mesh.edges)):
        if mesh.edge_tris[e, 1] == -1:
            continue
        ta, tb = mesh.edge_tris[e]
        ka = list(mesh.tri_edges[ta]).index(e)
        kb = list(mesh.tri_edges[tb]).index(e)
        va, ga = (a[ka] for a in eval_on_parent_edges(elements[ta], s))
        vb, gb = (a[kb] for a in eval_on_parent_edges(elements[tb], s))
        da, db = field.local_dofs(ta), field.local_dofs(tb)
        ok = ok and np.abs(va @ da - (vb @ db)[::-1]).max() < 1e-10
        gra = np.einsum("qjd,j->qd", ga, da)
        grb = np.einsum("qjd,j->qd", gb, db)
        ok = ok and np.abs(gra - grb[::-1]).max() < 1e-10

    quad = interpolate(mesh, lambda x, y: x * x, lambda x, y: (2.0 * x, 0.0))
    rng = np.random.default_rng(20)
    for _ in range(10):
        ti = int(rng.integers(mesh.num_triangles))
        lam = rng.dirichlet((2.0, 2.0, 2.0))
        pts = (lam @ mesh.vertices[mesh.triangles[ti]])[None, :]
        v, g, _ = quad.eval(ti, elements, pts)
        ok = ok and abs(v[0] - pts[0, 0] ** 2) < 1e-11
        ok = ok and np.abs(g[0] - [2.0 * pts[0, 0], 0.0]).max() < 1e-10
    notes.append("c1 element")

    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _verdict(capsys, 6, "structural properties", ok,
             f"{', '.join(notes)}, {elapsed:.1f}s")


def test_criterion_7_oracle_equivalences(capsys):
    # condensed element contributions against a dense inverse, computed in
    # the unit-diagonal basis so the oracle itself stays accurate
    t_cycle = (0.0, 1e-8, 1e-4, 1e-2, 1.0)
    rng = np.random.default_rng(11)
    worst = 0.0
    for k in range(20):
        coords = _shaped_triangle(500 + k)
        kern = ElementKernel([coords])
        t = t_cycle[k % 5]
        G = gram(kern, t)[0]
        B = np.hstack([b_field(kern, t)[0], b_trace(kern, t)[0]])
        l = rng.standard_normal(G.shape[0])
        _, _, (A,), (b,), _ = condense(G[None], B[None], l[None])
        d = 1.0 / np.sqrt(np.diag(G))
        Gi = np.linalg.inv(G * d[:, None] * d[None, :])
        Bs = d[:, None] * B
        A_ref = Bs.T @ Gi @ Bs
        b_ref = Bs.T @ (Gi @ (d * l))
        worst = max(worst, np.abs(A - A_ref).max() / np.abs(A_ref).max())
        worst = max(worst, np.abs(b - b_ref).max() / np.abs(b_ref).max())
    ok = worst < 1e-10

    # both global solvers land on the same coefficients, down to t = 0
    mesh = mesh_at_level(2)
    kernels = MeshKernels(mesh, ProblemConfig())
    cg_devs = {}
    for t in (1e-2, 1e-8, 0.0):
        cfg = ProblemConfig(t=t)
        direct = assemble_and_solve(mesh, cfg, kernels)
        via_cg = assemble_and_solve(mesh, replace(cfg, solver="cg"), kernels)
        cg_devs[t] = max(
            np.abs(a - b).max() / np.abs(a).max()
            for a, b in ((direct.u, via_cg.u), (direct.M, via_cg.M),
                         (direct.theta, via_cg.theta), (direct.trace, via_cg.trace))
            if a is not None
        )
    worst_cg = max(cg_devs.values())
    ok = ok and worst_cg < 1e-8
    per_t = ", ".join(f"{dev:.1e} at t={t:g}" for t, dev in cg_devs.items())
    _verdict(capsys, 7, "independent-oracle equivalence", ok,
             f"dense-oracle dev {worst:.1e}, direct-vs-cg dev {worst_cg:.1e} ({per_t})")
