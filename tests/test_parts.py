"""Chunk loops in two processes: the forked half gives the bits of one process.

A loop runs in two parts where the process has two cores; the serial
reference patches `os.sched_getaffinity` to one core, which runs the same
loop in this process alone.
"""

import mmap
import os
import signal
import warnings

import numpy as np
import pytest

from test_element_batch import MESHES, assert_same_bits, grid_mesh
from plate_dpg import dpg, driver, parts, quadrature
from plate_dpg.dpg import ElementKernel, ProblemConfig
from plate_dpg.mesh import mesh_at_level

two_cores = pytest.mark.skipif(parts.part_count() < 2, reason="the process has one core")

# four chunks of 16 or more in each mesh, so both loops fork
SPLIT_MESHES = {
    "uniform level 2": MESHES["uniform level 2"],
    "5 x 5 grid": lambda: grid_mesh(5),
    "jittered level 2": MESHES["jittered level 2"],
}


@pytest.fixture
def one_core(monkeypatch):
    """Run the test's chunk loops as if the process had one core."""
    def use_one_core():
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    return use_one_core


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def solve_parts(mesh, t):
    """The tables, the kept stacks, A and rhs of one mesh, and the parts they ran in."""
    cfg = ProblemConfig(t=t)
    kernels = driver.MeshKernels(mesh, cfg)
    stats = {}
    _, systems, A, rhs = driver.assemble(mesh, cfg, kernels, stats)
    arrays = [getattr(kernels, name) for name in kernels.NAMES]
    arrays += [*systems, A.data, A.indices, A.indptr, rhs]
    return arrays, stats["parts"]


@pytest.mark.parametrize("t", (1e-2, 0.0))
@pytest.mark.parametrize("name", SPLIT_MESHES)
def test_forked_stacks_have_the_bits_of_one_process(name, t, one_core):
    mesh = SPLIT_MESHES[name]()
    forked, n_parts = solve_parts(mesh, t)
    assert n_parts == parts.part_count()
    assert_no_child_left()
    one_core()
    serial, n_parts = solve_parts(mesh, t)
    assert n_parts == 1
    assert len(forked) == len(serial)
    for got, expect in zip(forked, serial):
        assert_same_bits(got, expect)


def spoil(kernels, case, element):
    if case == "zero Gram diagonal":
        kernels.vw[element] = 0.0
    else:
        kernels.ew[element] = np.nan


def assemble_error(case, elements):
    mesh = mesh_at_level(2)
    cfg = ProblemConfig()
    kernels = driver.MeshKernels(mesh, cfg)
    for element in elements:
        spoil(kernels, case, element)
    with pytest.raises(Exception) as err:
        driver.assemble(mesh, cfg, kernels)
    assert_no_child_left()
    return err.value


@two_cores
@pytest.mark.parametrize("case, error, message", [
    ("zero Gram diagonal", np.linalg.LinAlgError, "Gram matrix has a non-positive diagonal"),
    ("NaN in B", ValueError, "array must not contain infs or NaNs"),
])
def test_an_error_in_the_forked_half_is_raised_here(case, error, message, one_core):
    # the last element, 63, is in the last chunk, which the child builds;
    # both checks name it
    message = f"element 63: {message}"
    forked = assemble_error(case, [-1])
    assert type(forked) is error and str(forked) == message
    assert "raised in the forked half of a chunk loop" in forked.__notes__[0]
    one_core()
    serial = assemble_error(case, [-1])
    assert type(serial) is error and str(serial) == message


@two_cores
def test_a_thickness_past_float64_fails_in_one_line_where_the_loop_forks():
    # both halves form their own G and B; under the suite's warning filter,
    # their overflow once ended in a RuntimeWarning
    with pytest.raises(np.linalg.LinAlgError, match="^element 0: Gram matrix has a "
                       "non-positive diagonal$"):
        driver.assemble_and_solve(mesh_at_level(2), ProblemConfig(t=1e100))
    assert_no_child_left()


@two_cores
def test_a_bad_gram_matrix_is_named_by_its_mesh_index_in_either_part(monkeypatch):
    # a NaN in one element's test basis once gave "Gram matrix has a
    # non-positive diagonal" and no element; element 200 of level 3's 256 is
    # in chunk 12 of 16, which the child builds when the loop forks
    mesh, cfg = mesh_at_level(3), ProblemConfig()
    kernels = driver.MeshKernels(mesh, cfg)
    kernels.V[200, 0, 0] = np.nan
    for n_parts in (2, 1):
        monkeypatch.setattr(parts, "part_count", lambda: n_parts)
        with pytest.raises(np.linalg.LinAlgError) as err, warnings.catch_warnings():
            warnings.simplefilter("error")
            driver.assemble(mesh, cfg, kernels)
        assert str(err.value) == "element 200: Gram matrix has a non-positive diagonal"
        assert hasattr(err.value, "__notes__") == (n_parts == 2)
        assert_no_child_left()


@pytest.mark.parametrize("element", [0, 63])
def test_non_finite_systems_and_residuals_name_their_element(element):
    # both errors named no element; element 0 is in the first of the four
    # chunks of a level-2 mesh, element 63 in the last, which the forked half
    # builds on two cores
    mesh, cfg = mesh_at_level(2), ProblemConfig()
    kernels = driver.MeshKernels(mesh, cfg)
    load = kernels.f_values[element].copy()
    kernels.f_values[element] = np.nan
    message = f"element {element}: array must not contain infs or NaNs"
    with pytest.raises(ValueError) as err, warnings.catch_warnings():
        warnings.simplefilter("error")
        driver.assemble(mesh, cfg, kernels)
    assert str(err.value) == message
    if element == 63 and parts.part_count() == 2:
        assert "raised in the forked half of a chunk loop" in err.value.__notes__[0]
    assert_no_child_left()
    # the estimator runs on the whole-mesh stacks and names the mesh index
    kernels.f_values[element] = load
    dof, systems, _, _ = driver.assemble(mesh, cfg, kernels)
    x_loc = np.zeros(dof.element_dofs.shape)
    x_loc[element, 0] = np.nan
    with pytest.raises(ValueError) as err, warnings.catch_warnings():
        warnings.simplefilter("error")
        dpg.local_residuals(*systems, x_loc)
    assert str(err.value) == message


@two_cores
def test_the_first_half_error_wins_and_the_child_is_reaped():
    # element 0 is in the parent's half; with both halves spoiled the
    # parent's error comes first, as in the loop of one process
    for elements in ([0], [0, -1]):
        err = assemble_error("zero Gram diagonal", elements)
        assert type(err) is np.linalg.LinAlgError
        assert not hasattr(err, "__notes__")


@two_cores
def test_an_interrupt_in_the_first_half_reaps_the_child(monkeypatch):
    monkeypatch.setattr(parts, "CHUNK", 1)

    def compute(elements):
        if elements.start == 1:
            raise KeyboardInterrupt
        return (np.full(1, elements.start),)

    # chunks 0 and 1 are this process's, 2 and 3 the child's
    with pytest.raises(KeyboardInterrupt):
        parts.stack_chunks(4, compute)
    assert_no_child_left()


@two_cores
def test_a_child_that_dies_without_a_report_is_an_error(monkeypatch):
    monkeypatch.setattr(parts, "CHUNK", 1)

    def compute(elements):
        if elements.start == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return (np.zeros(1),)

    with pytest.raises(ChildProcessError, match="exit code -9 and no report"):
        parts.stack_chunks(4, compute)
    assert_no_child_left()


@two_cores
def test_the_child_fills_the_second_half_of_a_shared_stack(monkeypatch):
    monkeypatch.setattr(parts, "CHUNK", 1)

    def compute(elements):
        return np.full((1, 2), elements.start), np.full(1, os.getpid())

    (out, pids), n_parts = parts.stack_chunks(5, compute)
    assert n_parts == 2
    assert_same_bits(out, np.repeat(np.arange(5.0), 2).reshape(5, 2))
    # the first half, rounded up, is this process's
    assert (pids[:3] == os.getpid()).all() and (pids[3:] != os.getpid()).all()
    assert_no_child_left()


@two_cores
@pytest.mark.parametrize("chunk, n_chunks", [(4, 4), (3, 6), (5, 4), (6, 3), (7, 3), (16, 1)])
def test_both_loops_give_this_process_the_first_half_of_the_chunks(chunk, n_chunks,
                                                                   monkeypatch):
    # the level-1 mesh has 16 elements
    monkeypatch.setattr(parts, "CHUNK", chunk)
    mesh = mesh_at_level(1)
    coords = mesh.vertices[mesh.triangles]
    tables, systems = [], []
    map_to_triangles = quadrature.map_to_triangles
    element_system = driver.element_system

    # the empty chunk that gives each loop its stack layout is not recorded
    def record_tables(rule, xy):
        if len(xy):
            tables.append(int(np.flatnonzero((coords == xy[0]).all(axis=(1, 2)))[0]))
        return map_to_triangles(rule, xy)

    def record_systems(kernels, elements, config):
        if elements != slice(0, 0):
            systems.append(elements.start)
        return element_system(kernels, elements, config)

    # the child's records stay in the child: these are this process's chunks
    monkeypatch.setattr(quadrature, "map_to_triangles", record_tables)
    monkeypatch.setattr(driver, "element_system", record_systems)
    cfg = ProblemConfig()
    stats = {}
    driver.assemble(mesh, cfg, driver.MeshKernels(mesh, cfg), stats)
    assert stats["parts"] == min(2, n_chunks)
    expect = list(range(0, 16, chunk))[: (n_chunks + 1) // 2]
    assert tables == systems == expect
    assert_no_child_left()


@two_cores
def test_only_the_empty_chunk_is_computed_before_the_fork(monkeypatch):
    # a chunk computed before the fork runs serially on every forked solve
    monkeypatch.setattr(parts, "CHUNK", 4)
    mesh = mesh_at_level(1)
    calls, at_fork = [], []
    map_to_triangles = quadrature.map_to_triangles
    element_system = driver.element_system
    fork = os.fork

    def record_tables(rule, xy):
        calls.append(("tables", len(xy)))
        return map_to_triangles(rule, xy)

    def record_systems(kernels, elements, config):
        calls.append(("systems", elements))
        return element_system(kernels, elements, config)

    def record_fork():
        at_fork.append(calls.copy())
        calls.clear()
        return fork()

    monkeypatch.setattr(quadrature, "map_to_triangles", record_tables)
    monkeypatch.setattr(driver, "element_system", record_systems)
    monkeypatch.setattr(os, "fork", record_fork)
    cfg = ProblemConfig()
    driver.assemble(mesh, cfg, driver.MeshKernels(mesh, cfg))
    assert at_fork[0] == [("tables", 0)]
    # after the tables loop, this process computed its half of the chunks
    assert at_fork[1] == [("tables", 4)] * 2 + [("systems", slice(0, 0))]
    assert_no_child_left()


@pytest.mark.parametrize("t", (1e-2, 0.0))
def test_both_chunk_functions_give_the_stack_layout_from_an_empty_slice(t, monkeypatch):
    computes = []
    stack_chunks = parts.stack_chunks

    def capture(n, compute):
        computes.append(compute)
        return stack_chunks(n, compute)

    monkeypatch.setattr(parts, "stack_chunks", capture)
    mesh = mesh_at_level(1)
    cfg = ProblemConfig(t=t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        driver.assemble(mesh, cfg, driver.MeshKernels(mesh, cfg))
        assert len(computes) == 2  # the tables, then the systems
        for compute in computes:
            empty, full = compute(slice(0, 0)), compute(slice(0, parts.CHUNK))
            assert [a.shape for a in empty] == [(0,) + a.shape[1:] for a in full]


@two_cores
def test_a_one_chunk_loop_neither_forks_nor_maps_shared_memory(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a one-chunk loop forked or mapped shared memory")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(mmap, "mmap", refuse)
    (out,), n_parts = parts.stack_chunks(parts.CHUNK,
                                         lambda elements: (np.ones(parts.CHUNK)[elements],))
    assert n_parts == 1
    assert_same_bits(out, np.ones(parts.CHUNK))
    # the level-0 mesh is one chunk of 4 elements
    mesh = mesh_at_level(0)
    cfg = ProblemConfig()
    stats = {}
    driver.assemble(mesh, cfg, driver.MeshKernels(mesh, cfg), stats)
    assert stats["parts"] == 1


def test_one_core_or_one_chunk_never_forks(monkeypatch, one_core):
    def no_fork():
        raise AssertionError("os.fork was called")

    monkeypatch.setattr(os, "fork", no_fork)
    cfg = ProblemConfig()
    # the level-0 mesh is one chunk of 4 elements
    mesh = mesh_at_level(0)
    stats = {}
    driver.assemble(mesh, cfg, driver.MeshKernels(mesh, cfg), stats)
    assert stats["parts"] == 1
    one_core()
    mesh = mesh_at_level(2)
    stats = {}
    driver.assemble(mesh, cfg, driver.MeshKernels(mesh, cfg), stats)
    assert stats["parts"] == 1


BAD_TRIANGLES = {
    "collinear": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
    "clockwise": [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]],
    "NaN vertex": [[0.0, 0.0], [1.0, 0.0], [np.nan, 1.0]],
    "inf vertex": [[0.0, 0.0], [1.0, 0.0], [np.inf, 1.0]],
    "huge vertex": [[0.0, 0.0], [1.0, 0.0], [1e200, 1e200]],
    # mapped without complaint, and rejected by the barycentric gate: a long,
    # thin triangle's map does not give its vertices back.  The HCT set-up
    # rejected those of 1e12 to 1e100; those of 1e67 on warned of an overflow
    # in it or in the basis tables first, and 1e104 on ended in "array must
    # not contain infs or NaNs"; 1e9.5, between two rejected ones, built
    **{f"long thin 1e{e:g}": [[0.0, 0.0], [1.0, 0.0], [10 ** e, 10 ** e]]
       for e in (9.5, 12, 16, 20, 67, 74, 100, 104, 111.5, 121.5, 152)},
    "small far off": [[1e150, 1e150], [1e150 + 1e140, 1e150], [1e150, 1e150 + 1e140]],
    # a Jacobian > 0, and a barycentric map that is singular in floating point
    "singular map": [[3242.9574275224554, -5674.61689617546],
                     [3242.957427522455, -5674.616896175461],
                     [3242.957427522456, -5674.616896175462]],
}


@pytest.mark.parametrize("element", [0, -1])
@pytest.mark.parametrize("case", BAD_TRIANGLES)
def test_bad_triangles_are_rejected_in_either_half(case, element):
    # element 0 is in chunk 0, the last element in the last of four chunks,
    # which the forked half builds; a collinear triangle ended in a bare
    # "Singular matrix" and a NaN vertex deep in the HCT null space before,
    # an inf vertex warned "invalid value encountered in multiply" before
    # its ValueError, and the huge vertex ended in a bare "Singular matrix";
    # so did the long thin triangles from 1e16 on, the singular map, and the
    # one at 1e12 and the small far-off one in "constraint null space has
    # dimension 16" and 0; the gate names the element by its index in the mesh
    mesh = mesh_at_level(2)
    coords = mesh.vertices[mesh.triangles]
    coords[element] = BAD_TRIANGLES[case]
    with pytest.raises(ValueError) as err, warnings.catch_warnings():
        warnings.simplefilter("error")
        ElementKernel(coords)
    index = element % len(coords)  # 0 or 63
    assert str(err.value) == f"element {index}: triangle must be CCW and non-degenerate"
    if element == -1 and parts.part_count() == 2:
        assert "raised in the forked half of a chunk loop" in err.value.__notes__[0]
    assert_no_child_left()
