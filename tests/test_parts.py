"""Chunk loops in two processes: the forked half gives the bits of one process.

A loop runs in two parts where the process has two cores; the serial
reference patches `os.sched_getaffinity` to one core, which runs the same
loop in this process alone.
"""

import os
import signal
import warnings

import numpy as np
import pytest

from test_element_batch import MESHES, assert_same_bits, grid_mesh
from plate_dpg import driver, parts
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
    # the last element is in the last chunk, which the child builds
    forked = assemble_error(case, [-1])
    assert type(forked) is error and str(forked) == message
    assert "raised in the forked half of a chunk loop" in forked.__notes__[0]
    one_core()
    serial = assemble_error(case, [-1])
    assert type(serial) is error and str(serial) == message


@two_cores
def test_the_first_half_error_wins_and_the_child_is_reaped():
    # element 0 is in the parent's half; with both halves spoiled the
    # parent's error comes first, as in the loop of one process
    for elements in ([0], [0, -1]):
        err = assemble_error("zero Gram diagonal", elements)
        assert type(err) is np.linalg.LinAlgError
        assert not hasattr(err, "__notes__")


@two_cores
def test_an_interrupt_in_the_first_half_reaps_the_child():
    out = parts.empty(4)

    def fill(part):
        if 0 in part:
            raise KeyboardInterrupt
        out[part] = part

    with pytest.raises(KeyboardInterrupt):
        parts.run_chunks(range(4), fill)
    assert_no_child_left()


@two_cores
def test_a_child_that_dies_without_a_report_is_an_error():
    def fill(part):
        if 3 in part:
            os.kill(os.getpid(), signal.SIGKILL)

    with pytest.raises(ChildProcessError, match="exit code -9 and no report"):
        parts.run_chunks(range(4), fill)
    assert_no_child_left()


@two_cores
def test_the_child_fills_the_second_half_of_a_shared_stack():
    out = parts.empty((5, 2))
    pids = parts.empty(5)

    def fill(part):
        out[part] = np.array(part)[:, None]
        pids[part] = os.getpid()

    assert parts.run_chunks(range(5), fill) == 2
    assert_same_bits(out, np.repeat(np.arange(5.0), 2).reshape(5, 2))
    # the first half, rounded up, is this process's
    assert (pids[:3] == os.getpid()).all() and (pids[3:] != os.getpid()).all()
    assert_no_child_left()


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
}


@pytest.mark.parametrize("element", [0, -1])
@pytest.mark.parametrize("case", BAD_TRIANGLES)
def test_bad_triangles_are_rejected_in_either_half(case, element):
    # element 0 is in chunk 0, the last element in the last of four chunks,
    # which the forked half builds; a collinear triangle ended in a bare
    # "Singular matrix" and a NaN vertex deep in the HCT null space before,
    # an inf vertex warned "invalid value encountered in multiply" before
    # its ValueError, and the huge vertex ended in a bare "Singular matrix"
    mesh = mesh_at_level(2)
    coords = mesh.vertices[mesh.triangles]
    coords[element] = BAD_TRIANGLES[case]
    with pytest.raises(ValueError) as err, warnings.catch_warnings():
        warnings.simplefilter("error")
        ElementKernel(coords)
    assert str(err.value) == "triangle must be CCW and non-degenerate"
    if element == -1 and parts.part_count() == 2:
        assert "raised in the forked half of a chunk loop" in err.value.__notes__[0]
    assert_no_child_left()
