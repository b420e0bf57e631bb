"""Global assembly, boundary conditions, study driver, and CLI checks."""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from oracles import apply_bc_clamped, apply_bc_simply_supported, jittered_mesh, trace_dof
from plate_dpg import driver, linalg, parts
from plate_dpg import mesh as meshmod
from plate_dpg.cli import main
from plate_dpg.dpg import ProblemConfig, local_residuals
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
    assemble_and_solve,
    constrained_traces,
    element_system,
    kirchhoff_limit_check,
    run_study,
    write_csv,
)
from plate_dpg.linalg import SolveError
from plate_dpg.mesh import Mesh, mesh_at_level, write_mesh_text


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
            assert not dof.constrained[dof.traces[center, f, c]]


def test_boundary_midpoint_constraints(level1):
    # midpoint of the bottom side: deflection plus the two moment
    # components entering M n for normal -e_y, value and x-slope each
    mesh, cfg, _, _ = level1
    dof = DofMap(mesh, cfg)
    v = int(np.argmin(np.hypot(mesh.vertices[:, 0] - 0.5, mesh.vertices[:, 1])))
    assert np.allclose(mesh.vertices[v], (0.5, 0.0))
    got = {(f, c) for f in range(4) for c in (VAL, DX, DY)
           if dof.constrained[dof.traces[v, f, c]]}
    want = {(TRACE_U, VAL), (TRACE_U, DX),
            (TRACE_M12, VAL), (TRACE_M12, DX),
            (TRACE_M22, VAL), (TRACE_M22, DX)}
    assert got == want


def test_boundary_sides_complete():
    # level k splits each side of the square into 2**k boundary edges; each
    # side constrains its own (field, component) pairs at its vertices, and
    # the corners get both directions
    mesh = mesh_at_level(2)
    horizontal = {(f, c) for f in (TRACE_U, TRACE_M12, TRACE_M22) for c in (VAL, DX)}
    vertical = {(f, c) for f in (TRACE_U, TRACE_M11, TRACE_M12) for c in (VAL, DY)}
    got = {}
    for v, f, c in np.argwhere(constrained_traces(mesh, "simply-supported")):
        got.setdefault(v, set()).add((f, c))
    x, y = mesh.vertices.T
    corner = np.isin(x, (0.0, 1.0)) & np.isin(y, (0.0, 1.0))
    sides = [(y == 0.0, horizontal), (x == 1.0, vertical),
             (y == 1.0, horizontal), (x == 0.0, vertical)]
    for on_side, pairs in sides:
        edges = [e for e in mesh.boundary_edges if on_side[mesh.edges[e]].all()]
        assert len(edges) == 4
        for v in np.flatnonzero(on_side):
            assert got[v] == (horizontal | vertical if corner[v] else pairs)
    assert sorted(got) == list(mesh.boundary_vertices)


def test_boundary_conditions_reject_a_mesh_off_the_unit_square():
    base = mesh_at_level(1)
    mesh = Mesh(2.0 * base.vertices, base.triangles, level=1)
    with pytest.raises(ValueError) as err:
        DofMap(mesh, ProblemConfig())
    assert str(err.value) == "boundary conditions require a unit-square mesh"
    # the clamped condition pins the boundary vertices wherever they lie
    dof = DofMap(mesh, ProblemConfig(t=0.0, bc="clamped"))
    assert int(dof.constrained.sum()) == 3 * len(mesh.boundary_vertices) == 24


BC_MESHES = {**{f"uniform level {k}": lambda k=k: mesh_at_level(k) for k in range(4)},
             "jittered level 3": lambda: jittered_mesh(3, seed=0)}
BC_ORACLES = {"simply-supported": apply_bc_simply_supported, "clamped": apply_bc_clamped}


@pytest.mark.parametrize("bc", BC_ORACLES)
@pytest.mark.parametrize("name", BC_MESHES)
def test_constrained_traces_match_the_triples_of_the_edge_loop(name, bc):
    mesh = BC_MESHES[name]()
    mask = constrained_traces(mesh, bc)
    assert mask.shape == (mesh.num_vertices, 4, 3)
    assert np.argwhere(mask).tolist() == [list(triple) for triple in BC_ORACLES[bc](mesh)]


@pytest.mark.parametrize("shift", [(0.0, 0.0), (0.5, 0.0), (0.0, -0.25)])
def test_constrained_traces_reject_the_meshes_the_edge_loop_rejected(shift):
    # doubled, or moved off the square along one axis: some boundary edge
    # lies on no side of the unit square
    base = mesh_at_level(1)
    mesh = Mesh(2.0 * base.vertices + shift, base.triangles, level=1)
    message = "^boundary conditions require a unit-square mesh$"
    with pytest.raises(ValueError, match=message):
        apply_bc_simply_supported(mesh)
    with pytest.raises(ValueError, match=message):
        constrained_traces(mesh, "simply-supported")
    clamped = [list(triple) for triple in apply_bc_clamped(mesh)]
    assert np.argwhere(constrained_traces(mesh, "clamped")).tolist() == clamped


@pytest.mark.parametrize("config", [ProblemConfig(t=0.0), ProblemConfig(t=1e-2),
                                    ProblemConfig(t=0.0, bc="clamped")], ids=repr)
@pytest.mark.parametrize("level", range(4))
def test_trace_ids_have_the_bits_of_the_index_formula(level, config):
    mesh = mesh_at_level(level)
    dof = DofMap(mesh, config)
    nt, nv = mesh.num_triangles, mesh.num_vertices
    traces = trace_dof(dof, np.arange(nv)[:, None, None], np.arange(4)[:, None], np.arange(3))
    fields = dof.n_field * np.arange(nt)[:, None] + np.arange(dof.n_field)
    element_traces = trace_dof(dof, mesh.triangles[:, None, :, None],
                               np.arange(4)[:, None, None], np.arange(3))
    element_dofs = np.hstack([fields, element_traces.reshape(nt, 36)])
    for got, want in ((dof.traces, traces), (dof.element_dofs, element_dofs)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert dof.n_total == dof.field_total + 12 * nv
    assert np.array_equal(dof.constrained[traces], constrained_traces(mesh, config.bc))


def test_clamped_constraints(level1):
    mesh, _, _, _ = level1
    triples = np.argwhere(constrained_traces(mesh, "clamped"))
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
    kernels.f_values = np.zeros_like(kernels.f_values)
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
    systems = element_system(kernels, slice(None), cfg)[:4]  # Lp, dinv, B, l

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
    _, _, _, _, A_loc, b_loc, _ = element_system(kernels, slice(None), cfg)
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
    solver = linalg.spd_solver

    @contextlib.contextmanager
    def perturbed(A, *args, **kwargs):
        with solver(A, *args, **kwargs) as solve:
            yield lambda b: solve(b) * (1.0 + 1e-6)

    monkeypatch.setattr(linalg, "spd_solver", perturbed)
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


# both ended in a bare IndexError before: run_study indexed a short chain
@pytest.mark.parametrize("kernels, levels", [([], 2), ([None, None], 3)])
def test_run_study_extends_a_short_kernels_chain(kernels, levels):
    records = run_study([1e-2], levels, ProblemConfig(), [], kernels)
    assert [r.level for r in records] == list(range(levels))
    assert len(kernels) == levels
    assert all(isinstance(k, MeshKernels) for k in kernels)
    got, want = io.StringIO(), io.StringIO()
    write_csv(records, got)
    write_csv(run_study([1e-2], levels, ProblemConfig()), want)
    assert got.getvalue() == want.getvalue()


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


@pytest.fixture
def solves(monkeypatch):
    """The calls of driver.assemble_and_solve and driver.MeshKernels during the test.

    Each call is recorded and then fails the test, so a request that is
    not rejected in time never reaches the tables and solves of a large
    level.
    """
    calls = []

    def refused(name):
        def call(mesh, config, kernels=None):
            calls.append((name, mesh.level, config.t))
            raise AssertionError(f"{name} ran on level {mesh.level}, t = {config.t}")
        return call

    monkeypatch.setattr(driver, "assemble_and_solve", refused("assemble_and_solve"))
    monkeypatch.setattr(driver, "MeshKernels", refused("MeshKernels"))
    return calls


# before run_study checked its request, levels=0 and a clamped levels=1
# returned [], and a bad t last in the list was rejected after the solves
# of the t before it
@pytest.mark.parametrize("t_list, levels, config, message", [
    ([1e-2], 0, ProblemConfig(t=1e-2), "levels must be >= 1 (got 0)"),
    ([0.0], 1, ProblemConfig(t=0.0, bc="clamped"),
     "levels must be >= 2 for clamped plates, whose studies start at level 1 (got 1)"),
    ([1e-2, -1.0], 3, ProblemConfig(t=1e-2), "thickness t must be finite and >= 0"),
    ([1e-2, math.inf], 3, ProblemConfig(t=1e-2), "thickness t must be finite and >= 0"),
    ([0.0, 1e-2], 2, ProblemConfig(t=0.0, bc="clamped"),
     "clamped plates are supported only at t = 0"),
    ([], 2, ProblemConfig(t=1e-2), "t_list must hold at least one thickness"),
    ([1e-2], 8, ProblemConfig(t=1e-2), "level 7 has 786428 free dofs, more than the "
                                       "200000 of the direct solver; use the cg solver"),
])
def test_run_study_rejects_a_bad_request_before_any_solve(solves, t_list, levels, config,
                                                          message):
    with pytest.raises(ValueError) as err:
        run_study(t_list, levels, config)
    assert str(err.value) == message
    assert solves == []


def test_run_study_refines_no_level_past_the_direct_solver(solves):
    # the free dofs are counted for the widest layout (t > 0) as each level
    # is reached, so the level past the limit is the last mesh built
    chain = []
    with pytest.raises(ValueError, match="^level 7 has 786428 free dofs"):
        run_study([0.0, 1e-2], 9, ProblemConfig(t=0.0), chain)
    assert [m.level for m in chain] == list(range(8))
    assert solves == []


@pytest.mark.parametrize("given", [False, True], ids=["built kernels", "given kernels"])
def test_a_solve_past_the_direct_solver_is_refused_before_any_table(given, monkeypatch):
    # a single solve reached the direct solver's own size check only after
    # it had built the tables, every element system and A
    mesh, cfg = mesh_at_level(2), ProblemConfig(t=1e-2)
    kernels = MeshKernels(mesh, cfg) if given else None

    def refused(*args, **kwargs):
        raise AssertionError("ran before the size check")

    monkeypatch.setattr(linalg, "DIRECT_SIZE_LIMIT", 763)
    monkeypatch.setattr(driver, "MeshKernels", refused)
    monkeypatch.setattr(driver, "element_system", refused)
    with pytest.raises(ValueError) as err:
        assemble_and_solve(mesh, cfg, kernels)
    assert str(err.value) == "level 2 has 764 free dofs, more than the 763 of the direct solver"


def test_the_direct_size_rule_spares_the_cg_solver(monkeypatch):
    monkeypatch.setattr(linalg, "DIRECT_SIZE_LIMIT", 100)
    sol = assemble_and_solve(mesh_at_level(1), ProblemConfig(t=1e-2, solver="cg"))
    assert sol.n_free > 100


@pytest.mark.parametrize("level, t_sequence, message", [
    (-1, (1e-1,), "level must be >= 0 (got -1)"),
    (1, (1e-1, 0.0), "the limit study needs finite thicknesses t > 0"),
    (1, (1e-1, -1e-2), "the limit study needs finite thicknesses t > 0"),
    (1, (1e-1, math.inf), "the limit study needs finite thicknesses t > 0"),
    (1, (), "the limit study needs finite thicknesses t > 0"),
    (7, (1e-1,), "level 7 has 786428 free dofs, more than the 200000 of the direct solver"),
])
def test_kirchhoff_limit_check_rejects_a_bad_request_before_any_solve(
        solves, level, t_sequence, message):
    # level=-1 solved level 0 and reported "level -1", and a t = 0 made the
    # identity 0/0, which max() dropped, so the check passed
    with pytest.raises(ValueError) as err:
        kirchhoff_limit_check(level=level, t_sequence=t_sequence)
    assert str(err.value) == message
    assert solves == []


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


def test_cli_study_builds_each_mesh_once(monkeypatch, capsys, tmp_path):
    # the study once built every level again to check the direct solver's
    # size, and --dump-mesh the finest once more: 9 refinements here
    refine = meshmod.refine_uniform
    levels = []

    def counted(mesh):
        levels.append(mesh.level + 1)
        return refine(mesh)

    monkeypatch.setattr(meshmod, "refine_uniform", counted)
    path = tmp_path / "mesh.txt"
    assert main(["study", "--t-list", "1e-2", "--levels", "4", "--quiet",
                 "--dump-mesh", str(path)]) == 0
    assert levels == [1, 2, 3]
    monkeypatch.undo()
    buf = io.StringIO()
    write_mesh_text(mesh_at_level(3), buf)
    assert path.read_text() == buf.getvalue()
    assert capsys.readouterr().err == f"wrote level-3 mesh to {path}\n"


STATS_KEYS = {"systems_s", "assembly_s", "solve_s", "estimator_s", "n_free", "nnz",
              "residual_inf", "gram_pivot_min", "eta_max", "eta_mean", "blas_pinned",
              "cg_iterations", "factor_s", "factor_nnz", "factor_stored", "parts",
              "kept_mb"}


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


@pytest.mark.parametrize("t", ["1e100", "1e160", "1e300"])
def test_cli_rejects_a_thickness_past_float64_in_one_line(run_cli, tmp_path, t):
    # G and B overflow; numpy's overflow and invalid-value warnings once came
    # before the error line, and the suite's warning filter made them tracebacks
    proc = run_cli(["study", "--t-list", t, "--levels", "1"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        f"plate-dpg study: error: level 0, t = {float(t):g}: element 0: "
        "Gram matrix has a non-positive diagonal"]


# before these settings were validated, each of them ran: --levels 0 wrote
# a header-only CSV and exited 0, and clamped with the default t-list and
# with --levels 1 with a traceback; --levels 8 solved levels 0-6 and then
# ended in a traceback past the direct solver's limit.  The first two and
# the limit are run_study's messages.
@pytest.mark.parametrize("args, message", [
    (["--levels", "0"], "levels must be >= 1"),
    (["--bc", "clamped", "--t-list", "0", "--levels", "1"],
     "levels must be >= 2 for clamped plates"),
    (["--t-list=-1e-2"], "thickness t must be finite and >= 0"),
    (["--bc", "clamped"], "clamped plates"),
    (["--t-list", "1e-2,inf"], "thickness t must be finite and >= 0"),
    (["--levels", "8"], "level 7 has 786428 free dofs, more than the 200000 of the "
                        "direct solver; use the cg solver"),
    # each output path was opened only after the whole study had run
    (["--out", "missing/study.csv"], "--out missing/study.csv: no directory missing"),
    (["--stats", "missing/stats.json"], "--stats missing/stats.json: no directory missing"),
    (["--dump-mesh", "."], "--dump-mesh . is a directory"),
])
def test_cli_rejects_bad_settings_in_one_line(solves, capsys, tmp_path, args, message):
    out = tmp_path / "study.csv"
    assert main(["study", "--quiet", "--out", str(out), *args]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"plate-dpg study: error: {message}")
    assert not out.exists()
    assert solves == []


def test_cli_limit_rejects_a_level_past_the_direct_solver(solves, capsys):
    # limit --level 7 once built the level-7 kernels and systems and then
    # ended in a ValueError traceback from solve_spd
    assert main(["limit", "--level", "7"]) == 2
    err = capsys.readouterr()
    assert err.out == ""
    assert err.err.splitlines() == [
        "plate-dpg limit: error: level 7 has 786428 free dofs, more than the 200000 "
        "of the direct solver"]
    assert solves == []


@pytest.mark.parametrize("args, message", [
    (["--level", "-1"], "level must be >= 0 (got -1)"),
    (["--t-list", "0"], "the limit study needs finite thicknesses t > 0"),
    (["--t-list", "1e-1,-1e-2"], "the limit study needs finite thicknesses t > 0"),
])
def test_cli_limit_rejects_bad_settings_in_one_line(solves, capsys, args, message):
    assert main(["limit", *args]) == 2
    err = capsys.readouterr()
    assert err.out == ""
    assert err.err.splitlines() == [f"plate-dpg limit: error: {message}"]
    assert solves == []


def test_cli_study_names_the_failed_solve(monkeypatch, capsys, tmp_path):
    # a failed solve used to end in a NotPositiveDefiniteError traceback;
    # here every solve past level 0 fails as a singular matrix would
    solver = linalg.spd_solver

    @contextlib.contextmanager
    def singular_past_level_0(A, *args, **kwargs):
        if A.shape[0] > 44:
            raise linalg.NotPositiveDefiniteError(52)
        with solver(A, *args, **kwargs) as solve:
            yield solve

    monkeypatch.setattr(linalg, "spd_solver", singular_past_level_0)
    out = tmp_path / "study.csv"
    assert main(["study", "--t-list", "1e-2", "--levels", "2", "--quiet",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "plate-dpg study: error: level 1, t = 0.01: "
        "matrix is not positive definite (pivot 52)"]
    assert not out.exists()


def test_cli_limit_names_the_failed_solve(monkeypatch, capsys):
    # a failed solve in limit ended in a NotPositiveDefiniteError traceback
    @contextlib.contextmanager
    def singular(A, *args, **kwargs):
        raise linalg.NotPositiveDefiniteError(3)
        yield

    monkeypatch.setattr(linalg, "spd_solver", singular)
    assert main(["limit", "--level", "1"]) == 1
    err = capsys.readouterr()
    assert err.out == ""
    assert err.err.splitlines() == [
        "plate-dpg limit: error: level 1, t = 0: matrix is not positive definite (pivot 3)"]


# each of these ended in its element stage's message alone, which named
# no level, t or element
@pytest.mark.parametrize("args, message", [
    (["study", "--t-list", "1e-2,1e10", "--levels", "3", "--quiet"],
     "level 0, t = 1e+10: element 0: 10-th leading minor of the array is not positive definite"),
    (["study", "--t-list", "5e-324", "--levels", "1", "--quiet"],
     "level 0, t = 4.94066e-324: element 0: Gram matrix has a non-positive diagonal"),
    (["limit", "--level", "2", "--t-list", "1e10,1e-2"],
     "level 2, t = 1e+10: element 0: 10-th leading minor of the array is not positive definite"),
])
def test_cli_names_the_level_t_and_element_of_a_failed_element_stage(capsys, args, message):
    assert main(args) == 2
    err = capsys.readouterr()
    assert err.out == ""
    assert err.err.splitlines() == [f"plate-dpg {args[0]}: error: {message}"]


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


@pytest.mark.parametrize("t", (1e-2, 0.0))
def test_kept_mb_counts_the_stacks_kept_for_the_estimator(t):
    mesh, cfg = mesh_at_level(2), ProblemConfig(t=t)
    stats = {}
    _, kept, _, _ = driver.assemble(mesh, cfg, driver.MeshKernels(mesh, cfg), stats)
    Lp, dinv, B, l = kept
    assert stats["kept_mb"] == (Lp.nbytes + dinv.nbytes + B.nbytes + l.nbytes) / 2**20
    n = dinv.shape[1]
    assert Lp.nbytes == mesh.num_triangles * n * (n + 1) // 2 * 8


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
    # SuperLU stores each entry of L and U, and pads its relaxed supernodes
    assert stats["factor_stored"] >= stats["factor_nnz"]
