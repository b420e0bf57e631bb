"""Chunk loops run in two parts: this process and one forked child.

The element tables and the element systems are built chunk by chunk, and
the chunks are independent.  `stack_chunks` is the one loop: it takes the
stack layout from an empty chunk, then computes the first half of the
chunks here and the second half in one child made by `os.fork`, which
writes into whole-mesh stacks in anonymous shared memory, where the parent
reads them.  Each chunk is computed by the same code on the same inputs as
in one process, so the stacks hold the same bits.  There is no pool and
no setting: the part count is 2 where this process may run on two cores
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

# elements per chunk, for the element tables and the element systems: the
# transient stacked R of the Gram matrices stays near 6 MB, and a chunk's
# tables well below that; larger chunks save little time and raise peak memory
CHUNK = 16


def part_count():
    """Processes a chunk loop may run in: 2 where this process has two cores, else 1.

    A platform without `os.sched_getaffinity` runs in one part.
    """
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min(2, len(os.sched_getaffinity(0)))


def stack_chunks(n, compute):
    """Whole stacks of `n` elements, computed CHUNK at a time; returns (stacks, parts).

    `compute(elements)` takes a slice of element indices, the empty slice
    included, and returns that chunk's arrays with the elements on the leading
    axis; the empty chunk's arrays give the stack layout.  `stacks` holds one
    (n, ...) float array per returned array, and `parts` is the number of
    processes the loop ran in.  With one part (one core, or one chunk) the
    stacks are `np.empty` and every chunk is computed here.  With two, the
    stacks live in anonymous shared memory, mapped at allocation
    (MAP_POPULATE), so this process's RSS counts them whole and a forked
    child's writes land in this process's pages; this process computes the
    first ceil(N/2) of the N chunks and one forked child the rest, both inside
    `linalg.one_blas_thread()`.  An exception in either half is raised here
    with its type and message, the first half's first, as in one process.  The
    child is reaped on every path, and killed first when this half fails.
    """
    starts = range(0, n, CHUNK)
    n_parts = part_count() if len(starts) > 1 else 1
    layout = compute(slice(0, 0))  # nothing else is computed before the fork
    stacks = tuple(_empty((n,) + a.shape[1:], shared=n_parts > 1) for a in layout)

    def fill(part):
        for lo in part:
            chunk = slice(lo, lo + CHUNK)
            # the last chunk's arrays are held until the next ones are computed:
            # freed first, glibc hands the heap back to the system after each
            # chunk, which tripled the page faults of a level-4 table build
            arrays = compute(chunk)
            for stack, a in zip(stacks, arrays):
                stack[chunk] = a

    if n_parts == 1:
        fill(starts)
        return stacks, 1
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
    return stacks, 2


def _empty(shape, shared):
    """An uninitialised float array, in anonymous shared memory if `shared`.

    Shared memory is unmapped with the last array that uses it.
    """
    if not shared:
        return np.empty(shape)
    count = int(np.prod(shape))
    buffer = mmap.mmap(-1, max(count, 1) * np.dtype(float).itemsize,
                       flags=mmap.MAP_SHARED | mmap.MAP_POPULATE)
    return np.frombuffer(buffer, dtype=float, count=count).reshape(shape)


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
