"""Global assembly, boundary conditions, study driver, and CLI checks."""

import io
import json
import math

import numpy as np
import pytest

from plate_dpg import linalg, parts
from plate_dpg.cli import main
from plate_dpg.dpg import ProblemConfig, condense, local_residuals
from plate_dpg.driver import (
    CSV_HEADER,
    DX,
    DY,
    VAL,
    TRACE_M11,
    TRACE_M12,
    TRACE_M22,
    TRACE_U,
    RESIDUAL_MAX,
    DofMap,
    MeshKernels,
    apply_bc_clamped,
    assemble_and_solve,
    element_system,
    kirchhoff_limit_check,
    run_study,
    write_csv,
)
from plate_dpg.linalg import SolveError
from plate_dpg.mesh import Mesh, mesh_at_level


@pytest.fixture(scope="module")
def level1():
    mesh = mesh_at_level(1)
    cfg = ProblemConfig(t=1e-2)
    kernels = MeshKernels(mesh, cfg)
    sol = assemble_and_solve(mesh, cfg, kernels)
    return mesh, cfg, kernels, sol


def test_dof_counts_level0():
    mesh = mesh_at_level(0)
    assert mesh.num_vertices == 5 and mesh.num_triangles == 4
    dof = DofMap(mesh, ProblemConfig(t=1e-2))
    assert dof.n_total == 84
    assert dof.n_free == 44
    assert int(dof.constrained.sum()) == 40
    dof0 = DofMap(mesh, ProblemConfig(t=0.0))
    # dropping the rotation field removes two columns per element
    assert dof0.n_total == 76
    assert dof0.n_free == 36


def test_dof_counts_level1(level1):
    mesh, cfg, _, _ = level1
    dof = DofMap(mesh, cfg)
    assert mesh.num_vertices == 13 and mesh.num_triangles == 16
    assert dof.n_free == 188
    assert int(dof.constrained.sum()) == 64


def test_dof_accounting_recount():
    # corners accumulate both adjacent sides: 10 constraints; other
    # boundary vertices get 3 fields x (value, tangential slope) = 6
    for level in range(3):
        mesh = mesh_at_level(level)
        dof = DofMap(mesh, ProblemConfig(t=1e-2))
        xs, ys = mesh.vertices[:, 0], mesh.vertices[:, 1]
        on_x = (np.abs(xs) < 1e-12) | (np.abs(xs - 1.0) < 1e-12)
        on_y = (np.abs(ys) < 1e-12) | (np.abs(ys - 1.0) < 1e-12)
        corners = int(np.sum(on_x & on_y))
        sides = int(np.sum(on_x ^ on_y))
        assert corners == 4
        expected = 10 * corners + 6 * sides
        assert int(dof.constrained.sum()) == expected
        assert dof.n_free == dof.n_total - expected


def test_interior_vertex_unconstrained(level1):
    mesh, cfg, _, _ = level1
    dof = DofMap(mesh, cfg)
    center = int(np.argmin(np.hypot(mesh.vertices[:, 0] - 0.5,
                                    mesh.vertices[:, 1] - 0.5)))
    assert np.allclose(mesh.vertices[center], (0.5, 0.5))
    for f in range(4):
        for c in (VAL, DX, DY):
            assert not dof.constrained[dof.trace_dof(center, f, c)]


def test_boundary_midpoint_constraints(level1):
    # midpoint of the bottom side: deflection plus the two moment
    # components entering M n for normal -e_y, value and x-slope each
    mesh, cfg, _, _ = level1
    dof = DofMap(mesh, cfg)
    v = int(np.argmin(np.hypot(mesh.vertices[:, 0] - 0.5, mesh.vertices[:, 1])))
    assert np.allclose(mesh.vertices[v], (0.5, 0.0))
    got = {(f, c) for f in range(4) for c in (VAL, DX, DY)
           if dof.constrained[dof.trace_dof(v, f, c)]}
    want = {(TRACE_U, VAL), (TRACE_U, DX),
            (TRACE_M12, VAL), (TRACE_M12, DX),
            (TRACE_M22, VAL), (TRACE_M22, DX)}
    assert got == want


def test_clamped_constraints(level1):
    mesh, _, _, _ = level1
    triples = apply_bc_clamped(mesh)
    assert len(triples) == 3 * len(mesh.boundary_vertices)
    assert all(f == TRACE_U for _, f, _ in triples)
    dof = DofMap(mesh, ProblemConfig(t=0.0, bc="clamped"))
    assert int(dof.constrained.sum()) == len(triples)


def test_constrained_trace_dofs_are_zero(level1):
    mesh, cfg, _, sol = level1
    dof = DofMap(mesh, cfg)
    mask = dof.constrained[dof.field_total:]
    assert mask.any()
    assert np.all(sol.trace[mask] == 0.0)
    assert np.abs(sol.trace[~mask]).max() > 0.0


def test_theta_present_only_for_positive_thickness():
    mesh = mesh_at_level(0)
    sol = assemble_and_solve(mesh, ProblemConfig(t=1e-2))
    assert sol.theta is not None and sol.theta.shape == (4, 2)
    sol0 = assemble_and_solve(mesh, ProblemConfig(t=0.0))
    assert sol0.theta is None


def test_zero_load_gives_zero_solution(level1):
    mesh, cfg, _, _ = level1
    kernels = MeshKernels(mesh, cfg)
    kernels.f_values = [np.zeros_like(fv) for fv in kernels.f_values]
    sol = assemble_and_solve(mesh, cfg, kernels)
    assert np.abs(sol.u).max() == 0.0
    assert np.abs(sol.M).max() == 0.0
    assert np.abs(sol.trace).max() == 0.0
    assert sol.eta == 0.0


def test_estimator_positive_and_decreasing(level1):
    _, cfg, _, sol1 = level1
    sol0 = assemble_and_solve(mesh_at_level(0), cfg)
    assert sol0.eta > 0.0
    assert np.all(sol0.eta_elements > 0.0)
    assert sol1.eta < 0.75 * sol0.eta
    # global estimator is the root-sum-square of the element values
    assert abs(sol1.eta - np.sqrt(np.sum(sol1.eta_elements ** 2))) \
        < 1e-14 * sol1.eta


def test_element_order_determinism(level1):
    mesh, cfg, _, sol = level1
    rng = np.random.default_rng(3)
    perm = rng.permutation(mesh.num_triangles)
    permuted = Mesh(mesh.vertices.copy(), mesh.triangles[perm].copy())
    solp = assemble_and_solve(permuted, cfg)
    u_scale = np.abs(sol.u).max()
    m_scale = np.abs(sol.M).max()
    t_scale = np.abs(sol.trace).max()
    assert np.abs(solp.u - sol.u[perm]).max() < 1e-10 * u_scale
    assert np.abs(solp.M - sol.M[perm]).max() < 1e-10 * m_scale
    assert np.abs(solp.trace - sol.trace).max() < 1e-10 * t_scale
    assert abs(solp.eta - sol.eta) < 1e-10 * sol.eta


def _full_coefficients(dof, sol):
    x = np.zeros(dof.n_total)
    fields = np.hstack([sol.u[:, None], sol.M, sol.theta])
    x[: dof.field_total] = fields.ravel()
    x[dof.field_total:] = sol.trace
    return x


def test_solution_minimizes_residual(level1):
    mesh, cfg, kernels, sol = level1
    dof = DofMap(mesh, cfg)
    x = _full_coefficients(dof, sol)
    systems = element_system(kernels, slice(None), cfg)

    def eta_of(vec):
        s = 0.0
        for eta_T in local_residuals(*systems, vec[dof.element_dofs]):
            s += eta_T ** 2
        return math.sqrt(s)

    base = eta_of(x)
    assert abs(base - sol.eta) < 1e-12 * sol.eta
    rng = np.random.default_rng(7)
    for _ in range(10):
        step = np.zeros(dof.n_total)
        step[dof.free] = rng.normal(size=dof.n_free) \
            * 10.0 ** rng.uniform(-6, -1)
        assert eta_of(x + step) >= base * (1.0 - 1e-12)


def test_normal_equations_hold_under_reassembly(level1):
    # rebuild the condensed system independently and check the returned
    # coefficients satisfy it
    mesh, cfg, kernels, sol = level1
    dof = DofMap(mesh, cfg)
    x = _full_coefficients(dof, sol)
    A = np.zeros((dof.n_free, dof.n_free))
    b = np.zeros(dof.n_free)
    A_loc, b_loc = condense(*element_system(kernels, slice(None), cfg))
    for ti, (A_T, b_T) in enumerate(zip(A_loc, b_loc)):
        fidx = dof.free_index[dof.element_dofs[ti]]
        keep = fidx >= 0
        sub = fidx[keep]
        A[np.ix_(sub, sub)] += A_T[np.ix_(keep, keep)]
        b[sub] += b_T[keep]
    res = np.abs(A @ x[dof.free] - b).max()
    scale = np.abs(b).max() + np.abs(A).max() * np.abs(x[dof.free]).max()
    assert res < 1e-12 * scale
    assert sol.residual_inf < 1e-14


def test_cached_kernels_require_the_mesh_they_were_built_for(level1):
    # kernels of another mesh with the same triangles once gave a plausible
    # solution (err_u 5.967e-6 against 6.020e-6) without any error
    mesh, cfg, kernels, _ = level1
    moved = mesh.vertices.copy()
    interior = np.setdiff1d(np.arange(mesh.num_vertices), mesh.boundary_vertices)
    moved[interior[0]] += 0.01
    with pytest.raises(ValueError, match="another mesh"):
        assemble_and_solve(Mesh(moved, mesh.triangles, level=1), cfg, kernels)
    with pytest.raises(ValueError, match="another mesh"):
        assemble_and_solve(mesh_at_level(2), cfg, kernels)
    # kernels follow the arrays they were built from, not the mesh object
    own = mesh_at_level(1)
    own_kernels = MeshKernels(own, cfg)
    own.vertices[interior[0]] += 0.01
    with pytest.raises(ValueError, match="another mesh"):
        assemble_and_solve(own, cfg, own_kernels)


def test_solve_rejects_a_large_backward_error(level1, monkeypatch):
    mesh, cfg, kernels, sol = level1
    assert sol.residual_inf <= RESIDUAL_MAX
    solve = linalg.solve_spd

    def perturbed(A, b, **kwargs):
        x = solve(A, b, **kwargs)
        return x * (1.0 + 1e-6)

    monkeypatch.setattr(linalg, "solve_spd", perturbed)
    with pytest.raises(SolveError, match=r"residual_inf = \d\.\d{3}e-\d+ exceeds 1e-12"):
        assemble_and_solve(mesh, cfg, kernels)


def test_study_errors_decrease_and_rates_match():
    cfg = ProblemConfig(t=1e-2)
    records = run_study([1e-2], 3, cfg)
    assert len(records) == 3
    assert [r.level for r in records] == [0, 1, 2]
    for prev, cur in zip(records, records[1:]):
        assert cur.err_u < prev.err_u
        assert cur.err_M < prev.err_M
        assert cur.err_theta < prev.err_theta
        assert cur.ndof > prev.ndof
        assert abs(cur.rate_u - math.log2(prev.err_u / cur.err_u)) < 1e-12
        assert abs(cur.rate_M - math.log2(prev.err_M / cur.err_M)) < 1e-12
    assert math.isnan(records[0].rate_u)
    assert math.isnan(records[0].rate_M)
    assert math.isnan(records[0].rate_theta)


def test_csv_format():
    cfg = ProblemConfig(t=1e-2)
    records = run_study([1e-2], 2, cfg)
    buf = io.StringIO()
    write_csv(records, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert len(first) == 10
    assert first[0] == "0"
    assert first[7] == first[8] == first[9] == "nan"
    second = lines[2].split(",")
    # 16 significant digits round-trip to the stored doubles
    for cell, value in zip(second[3:7], (records[1].err_u, records[1].err_M,
                                         records[1].err_theta, records[1].eta)):
        assert abs(float(cell) - value) <= 1e-15 * abs(value)


def test_kirchhoff_limit_check_small():
    out = kirchhoff_limit_check(level=1, t_sequence=(1e-1, 1e-2))
    assert out["level"] == 1
    assert [row[0] for row in out["rows"]] == [1e-1, 1e-2]
    assert out["monotone_u"] and out["monotone_M"]
    assert out["identity_rel_err"] < 1e-12


def test_cli_version(run_cli, tmp_path):
    proc = run_cli(["--version"], tmp_path)
    assert proc.returncode == 0
    assert "0.1.0" in proc.stdout


def test_cli_study_writes_csv_and_mesh(run_cli, tmp_path):
    csv_path = tmp_path / "study.csv"
    mesh_path = tmp_path / "mesh.txt"
    proc = run_cli(
        ["study", "--t-list", "1e-2", "--levels", "2", "--quiet",
         "--out", str(csv_path), "--dump-mesh", str(mesh_path)],
        tmp_path,
    )
    assert proc.returncode == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    dump = mesh_path.read_text().splitlines()
    assert dump[0].startswith("v ")
    assert dump[-1].startswith("t ")
    # finest level written: 13 vertices, 16 triangles
    assert len(dump) == 29


STATS_KEYS = {"systems_s", "assembly_s", "solve_s", "estimator_s", "n_free", "nnz",
              "residual_inf", "gram_pivot_min", "eta_max", "eta_mean", "blas_pinned",
              "cg_iterations", "factor_s", "factor_nnz", "parts"}


def test_cli_study_writes_solve_stats(capsys, tmp_path):
    args = ["study", "--t-list", "1e-2,0", "--levels", "2"]
    assert main(args) == 0
    plain = capsys.readouterr()
    path = tmp_path / "stats.jsonl"
    assert main(args + ["--stats", str(path)]) == 0
    traced = capsys.readouterr()
    assert traced.out == plain.out
    # the progress lines are the same up to the seconds they end with
    progress = [line.rsplit(" [", 1)[0] for line in traced.err.splitlines()]
    assert progress == [line.rsplit(" [", 1)[0] for line in plain.err.splitlines()] + [
        f"wrote 4 solve stats to {path}"]
    rows = [line.split(",") for line in plain.out.splitlines()[1:]]
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(d["level"], d["t"]) for d in lines] == [(0, 1e-2), (1, 1e-2), (0, 0.0), (1, 0.0)]
    for d, row in zip(lines, rows):
        assert (d["level"], d["t"]) == (int(row[0]), float(row[1]))
        assert set(d["stats"]) == STATS_KEYS
        assert d["stats"]["n_free"] == int(row[2])
        assert d["stats"]["cg_iterations"] == 0


def test_cli_rejects_bad_thickness_list(run_cli, tmp_path):
    proc = run_cli(["study", "--t-list", "1e-2,oops"], tmp_path)
    assert proc.returncode == 2


# before these settings were validated, each of them ran: --levels 0 wrote
# a header-only CSV and exited 0, and clamped with the default t-list and
# with --levels 1 with a traceback; --levels 8 solved levels 0-6 and then
# ended in a traceback past the direct solver's limit
@pytest.mark.parametrize("args, message", [
    (["--levels", "0"], "--levels must be >= 1"),
    (["--bc", "clamped", "--t-list", "0", "--levels", "1"],
     "--levels must be >= 2 for clamped plates"),
    (["--t-list=-1e-2"], "thickness t must be finite and >= 0"),
    (["--bc", "clamped"], "clamped plates"),
    (["--t-list", "1e-2,inf"], "thickness t must be finite and >= 0"),
    (["--levels", "8"], "level 7 has 786428 free dofs, more than the 200000 of the "
                        "direct solver; use --solver cg"),
    # each output path was opened only after the whole study had run
    (["--out", "missing/study.csv"], "--out missing/study.csv: no directory missing"),
    (["--stats", "missing/stats.json"], "--stats missing/stats.json: no directory missing"),
    (["--dump-mesh", "."], "--dump-mesh . is a directory"),
])
def test_cli_rejects_bad_settings_in_one_line(run_cli, tmp_path, args, message):
    out = tmp_path / "study.csv"
    proc = run_cli(["study", "--quiet", "--out", str(out), *args], tmp_path)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"plate-dpg study: error: {message}")
    assert not out.exists()


def test_cli_limit_rejects_a_level_past_the_direct_solver(run_cli, tmp_path):
    # limit --level 7 once built the level-7 kernels and systems and then
    # ended in a ValueError traceback from solve_spd
    proc = run_cli(["limit", "--level", "7"], tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "plate-dpg limit: error: level 7 has 786428 free dofs, more than the 200000 "
        "of the direct solver"]


def test_cli_study_names_the_failed_solve(monkeypatch, capsys, tmp_path):
    # a failed solve used to end in a NotPositiveDefiniteError traceback;
    # here every solve past level 0 fails as a singular matrix would
    solve = linalg.solve_spd

    def singular_past_level_0(A, b, **kwargs):
        if A.shape[0] > 44:
            raise linalg.NotPositiveDefiniteError(52)
        return solve(A, b, **kwargs)

    monkeypatch.setattr(linalg, "solve_spd", singular_past_level_0)
    out = tmp_path / "study.csv"
    assert main(["study", "--t-list", "1e-2", "--levels", "2", "--quiet",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "plate-dpg study: error: level 1, t = 0.01: "
        "matrix is not positive definite (pivot 52)"]
    assert not out.exists()


def test_cli_clamped_study_starts_at_level_1_and_converges(run_cli, tmp_path):
    # level 0 of a clamped plate is singular in a trace gauge, so the study
    # skips it; the rates approach 1 as they do for the simple support
    proc = run_cli(["study", "--bc", "clamped", "--t-list", "0", "--levels", "5",
                    "--quiet"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == CSV_HEADER
    rows = [dict(zip(CSV_HEADER.split(","), line.split(","))) for line in lines[1:]]
    assert [row["level"] for row in rows] == ["1", "2", "3", "4"]
    assert rows[0]["rate_u"] == "nan"
    assert 0.9 <= float(rows[-1]["rate_u"]) <= 1.2


def test_solution_stats_report_the_solve():
    sol = assemble_and_solve(mesh_at_level(2), ProblemConfig(t=1e-2))
    stats = sol.stats
    assert set(stats) == STATS_KEYS
    assert all(np.isfinite(value) for value in stats.values())
    assert all(stats[key] >= 0.0 for key in stats if key.endswith("_s"))
    assert stats["n_free"] == sol.n_free
    assert stats["residual_inf"] == sol.residual_inf
    assert 0 < stats["nnz"] <= sol.n_free ** 2
    # the pivots of a unit-diagonal matrix lie in (0, 1]
    assert 0.0 < stats["gram_pivot_min"] <= 1.0
    assert stats["eta_max"] == sol.eta_elements.max()
    assert sol.eta_elements.min() <= stats["eta_mean"] <= stats["eta_max"]
    assert stats["blas_pinned"] == len(linalg._blas_thread_controls())
    assert stats["cg_iterations"] == 0
    # the 64 elements are four chunks
    assert stats["parts"] == parts.part_count()
    # the diagonals of L (unit) and U (the positive pivots) are stored
    assert stats["factor_nnz"] >= 2 * sol.n_free
