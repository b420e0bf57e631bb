"""Chunk loops run in two parts: this process and one forked child.

The element tables and the element systems are built chunk by chunk, and
the chunks are independent.  `run_chunks` fills the first half of a
loop's chunks here and the second half in one child made by `os.fork`,
which writes into stacks allocated by `empty` in anonymous shared
memory, so the parent reads the child's chunks where they were written.
Each chunk is computed by the same code on the same inputs as in one
process, so the stacks hold the same bits.  There is no pool and no
setting: the part count is 2 where this process may run on two cores
(`os.sched_getaffinity`) and the loop has two chunks or more, and 1
otherwise, which runs the loop here without a fork.
"""

import mmap
import os
import pickle
import signal
import traceback

import numpy as np

from . import linalg


def part_count():
    """Processes a chunk loop may run in: 2 where this process has two cores, else 1.

    A platform without `os.sched_getaffinity` runs in one part.
    """
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min(2, len(os.sched_getaffinity(0)))


def empty(shape):
    """An uninitialised float array of `shape` that a chunk loop's child can fill.

    With two parts it lives in anonymous shared memory, so a forked
    child's writes land in the parent's pages.  The pages are mapped here
    at allocation (MAP_POPULATE), so this process's RSS counts the whole
    array, also the part only a child writes, and the memory is unmapped
    with the last array that uses it.  With one part it is `np.empty`.
    """
    if part_count() < 2:
        return np.empty(shape)
    count = int(np.prod(shape))
    buffer = mmap.mmap(-1, max(count, 1) * np.dtype(float).itemsize,
                       flags=mmap.MAP_SHARED | mmap.MAP_POPULATE)
    return np.frombuffer(buffer, dtype=float, count=count).reshape(shape)


def run_chunks(starts, fill):
    """Fill the chunks that start at `starts`; returns the number of processes used.

    `fill(part)` loops over the chunk starts in `part` and must write its
    results only into arrays of `empty`.  It is called once per
    process: a call per chunk would free the loop's temporaries after
    each chunk, and glibc then hands the heap back to the system, which
    tripled the page faults of a level-5 table build.  With one part,
    `fill` gets every start.  With two, this process fills the first half
    of the chunks and one forked child the second half, both inside
    `linalg.one_blas_thread()`.  An exception in either half is raised
    here with its type and message, the first half's first, as the loop
    in one process would raise it.  The child is reaped on every path,
    and killed first when this half fails.
    """
    starts = list(starts)
    if part_count() < 2 or len(starts) < 2:
        fill(starts)
        return 1
    half = (len(starts) + 1) // 2
    with linalg.one_blas_thread():
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            _child(read_fd, write_fd, fill, starts[half:])
        os.close(write_fd)
        status = None
        try:
            with open(read_fd, "rb") as pipe:
                fill(starts[:half])
                report = pipe.read()
            _, status = os.waitpid(pid, 0)
        finally:
            if status is None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    if report:
        raise pickle.loads(report)
    if status != 0:
        raise ChildProcessError("the forked half of a chunk loop ended with exit code "
                                f"{os.waitstatus_to_exitcode(status)} and no report")
    return 2


def _child(read_fd, write_fd, fill, starts):
    """The forked child: fill its chunks, send back any exception, and always `os._exit`."""
    code = 1
    try:
        os.close(read_fd)
        fill(starts)
        code = 0
    except BaseException as exc:
        exc.add_note("raised in the forked half of a chunk loop:\n"
                     + "".join(traceback.format_tb(exc.__traceback__)))
        try:
            report = pickle.dumps(exc)
            pickle.loads(report)
        except Exception:  # an exception that does not round-trip goes as its text
            report = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
        with open(write_fd, "wb") as pipe:
            pipe.write(report)
    finally:
        os._exit(code)
