"""Shared test fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import plate_dpg
from plate_dpg import linalg


@pytest.fixture
def run_cli():
    """Run `python -m plate_dpg ARGS` in a subprocess.

    The child imports the same package as the test process: its PYTHONPATH
    starts with the absolute directory `plate_dpg` was imported from, so a
    relative entry such as `PYTHONPATH=src` or an uninstalled checkout
    still resolves when the child runs in another working directory.
    """
    root = str(Path(plate_dpg.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)

    def run(args, cwd=None, timeout=300):
        return subprocess.run(
            [sys.executable, "-m", "plate_dpg", *args],
            capture_output=True, text=True, cwd=cwd, env=env, timeout=timeout,
        )

    return run


@pytest.fixture
def blas_at_two():
    """Every OpenBLAS `linalg.one_blas_thread` controls on 2 threads for the test.

    Yields the number of such libraries.  The counts found are restored
    after the test; without such a library the test is skipped.
    """
    controls = linalg._blas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control found")
    found = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(2)
    yield len(controls)
    for (_, set_), count in zip(controls, found):
        set_(count)
