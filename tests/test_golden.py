"""Bit-for-bit guard: the solver's outputs hash to the values in golden.json
and golden_level5.json.

Each output is hashed with SHA-256 over exact values: `float.hex` of each
scalar and the raw bytes of each array (with its dtype and shape).  The
outputs golden.json holds are the acceptance study on the four benchmark
thicknesses at levels 0-3, the clamped study at t = 0 on levels 1-3,
every `MeshKernels` table of uniform level 2, the fields, estimator,
assembled matrix, kept element stacks and the counters of
`Solution.stats` (STATS) of one jittered level-3 mesh at t = 1e-2 and
t = 0, the Kirchhoff limit check at level 2, the `verify` report and each
value of `verify_manufactured` it reads.  The tables and the jittered
outputs are also computed with every chunk loop in one process and
compared with the same hashes, which were taken with the loops in two
where the machine has two cores.  A solve's matrix and kept stacks are
hashed as its calls of `linalg.spd_solver` and `dpg.local_residuals`
receive them, so each guarded solve is assembled once.

golden_level5.json holds the larger outputs: the report and exit status
of `plate-dpg study --levels 5` (the acceptance study, levels 0-4), of
the clamped study at t = 0 to level 5 (`study --bc clamped --t-list 0
--levels 6`), of `plate-dpg limit` and of `plate-dpg verify`, and the
fields, estimator, assembled matrix and STATS of the uniform level-5
solves at t = 1e-2 and t = 0, made without given tables.  Its `limit` is
the CLI report, not the level-2 check values golden.json holds under
that name.

The hashes hold for one environment, whose fingerprint each file keeps.
On another one the tests are skipped and name the fields that differ.

    PYTHONPATH=src python tests/test_golden.py --write

adds to each file the hashes of outputs it does not hold yet, computed
from this tree, and keeps every hash it holds.  It refuses on another
environment, and it exits non-zero without writing when an output a file
holds has other bits, naming that output.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy

from oracles import jittered_mesh
from plate_dpg import cli, dpg, driver, linalg, manufactured, parts
from plate_dpg.dpg import ProblemConfig
from plate_dpg.mesh import mesh_at_level

GOLDEN = Path(__file__).with_name("golden.json")
GOLDEN_LEVEL5 = Path(__file__).with_name("golden_level5.json")
STUDY_T = (1e-2, 1e-4, 1e-6, 1e-8)  # the t list of the benchmark's study workload
STUDY_LEVELS = 4
JITTER_LEVEL, JITTER_SEED = 3, 0
CLAMPED_LEVELS = 4  # levels 1-3: clamped studies start at level 1
TABLES_LEVEL = 2
VERIFY_T = (0.0, 1e-2, 1e-4)  # the thicknesses `plate-dpg verify` checks
# the fields of Solution.stats that are not times; factor_stored moves with
# any SuperLU option
STATS = ("n_free", "nnz", "factor_nnz", "factor_stored", "residual_inf",
         "gram_pivot_min", "eta_max", "eta_mean", "kept_mb")
# the CLI runs whose report and exit status golden_level5.json holds
COMMANDS = {
    "study --levels 5": ["study", "--levels", "5", "--quiet"],
    "clamped study --levels 6": ["study", "--bc", "clamped", "--t-list", "0", "--levels", "6",
                                 "--quiet"],
    "limit": ["limit"],
    "verify": ["verify"],
}
SOLVE_LEVEL = 5


def fingerprint():
    """The versions and machine the hashes were taken on."""

    def blas(config):
        dep = config.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', '?')} {dep.get('version', '?')}"

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "machine": platform.machine(),
    }


def digest(*values):
    """SHA-256 of scalars (by `float.hex`), strings, and arrays (by their raw bytes)."""
    h = hashlib.sha256()
    for v in values:
        if isinstance(v, str):
            h.update(b"s" + v.encode())
        elif isinstance(v, np.ndarray):
            h.update(f"a{v.dtype.str}{v.shape}".encode() + np.ascontiguousarray(v).tobytes())
        else:
            h.update(b"f" + float(v).hex().encode())
    return h.hexdigest()


def hashing_arguments(hashes, owner, name, arrays):
    """Patch `owner.name` to put, at each call, the SHA-256 of each of `arrays(*args)` into `hashes`.

    `arrays` names the arrays to hash among the call's arguments; each is
    hashed before the call runs, and no reference to it is kept.
    """
    call = getattr(owner, name)

    def hashed(*args):
        hashes.update({key: digest(a) for key, a in arrays(*args).items()})
        return call(*args)

    return mock.patch.object(owner, name, hashed)


def matrix_hashes(hashes):
    """Hash into `hashes` the A that each `linalg.spd_solver` call of the with-block receives."""
    return hashing_arguments(hashes, linalg, "spd_solver", lambda A, *_: {
        "A.data": A.data, "A.indices": A.indices, "A.indptr": A.indptr})


def kept_hashes(hashes):
    """Hash into `hashes` the kept stacks each `dpg.local_residuals` call of the with-block receives."""
    return hashing_arguments(hashes, dpg, "local_residuals", lambda Lp, dinv, B, l, _: {
        "kept L": Lp, "kept dinv": dinv, "kept B": B, "kept l": l})


def jittered_outputs():
    """{name: SHA-256} of the jittered level-3 solves, A, kept stacks and stats."""
    out = {}
    mesh = jittered_mesh(JITTER_LEVEL, JITTER_SEED)
    kernels = driver.MeshKernels(mesh, ProblemConfig())
    for t in (1e-2, 0.0):
        inputs = {}
        with matrix_hashes(inputs), kept_hashes(inputs):
            sol = driver.assemble_and_solve(mesh, ProblemConfig(t=t), kernels)
        out.update(solve_outputs(f"jittered t={t:g}", sol, inputs))
    return out


def solve_outputs(prefix, sol, inputs):
    """{name: SHA-256} of one solve's fields, its `inputs` hashes and its STATS."""
    out = {f"{prefix} {name}": digest("none" if (a := getattr(sol, name)) is None else a)
           for name in ("u", "M", "theta", "trace", "eta_elements")}
    out.update({f"{prefix} {name}": h for name, h in inputs.items()})
    out.update({f"{prefix} stats {name}": digest(sol.stats[name]) for name in STATS})
    return out


def table_outputs():
    """{name: SHA-256} of every `MeshKernels` table of uniform level TABLES_LEVEL."""
    tables = driver.MeshKernels(mesh_at_level(TABLES_LEVEL), ProblemConfig())
    return {f"tables level={TABLES_LEVEL} {name}": digest(getattr(tables, name))
            for name in tables.NAMES}


def cli_digest(argv):
    """SHA-256 of the report `cli.main(argv)` prints and its exit status."""
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        code = cli.main(argv)
    return digest(report.getvalue(), code)


def outputs():
    """{name: SHA-256} of every guarded output of this tree."""

    def study(*args):
        return digest(*(getattr(r, name) for r in driver.run_study(*args)
                        for name in driver.CSV_HEADER.split(",")))

    out = {"study": study(STUDY_T, STUDY_LEVELS, ProblemConfig()),
           "clamped study": study((0.0,), CLAMPED_LEVELS, ProblemConfig(t=0.0, bc="clamped")),
           **table_outputs(), **jittered_outputs()}

    limit = driver.kirchhoff_limit_check(level=2)
    out["limit"] = digest(*(v for row in limit["rows"] for v in row),
                          str(limit["monotone_u"]), str(limit["monotone_M"]),
                          limit["identity_rel_err"])

    out["verify"] = cli_digest(["verify"])
    # the report prints 4 digits; each value it reads is guarded to the bit
    for t in VERIFY_T:
        out.update({f"verify t={t:g} {key}": digest(value)
                    for key, value in manufactured.verify_manufactured(t).items()})
    return out


def level5_outputs():
    """{name: SHA-256} of the CLI reports of COMMANDS and the uniform level-5 solves."""
    out = {name: cli_digest(argv) for name, argv in COMMANDS.items()}
    mesh = mesh_at_level(SOLVE_LEVEL)
    for t in (1e-2, 0.0):
        inputs = {}
        with matrix_hashes(inputs):
            sol = driver.assemble_and_solve(mesh, ProblemConfig(t=t))
        out.update(solve_outputs(f"level {SOLVE_LEVEL} t={t:g}", sol, inputs))
    return out


def changed_outputs(held, got):
    """The names, sorted, of the outputs in `held` whose hash `got` lacks or differs from."""
    return sorted(k for k, v in held.items() if got.get(k) != v)


def assert_keeps_its_bits(path, compute):
    """Skip on another environment; else `compute()` must give exactly the hashes `path` holds."""
    golden = json.loads(path.read_text())
    here = fingerprint()
    differ = [k for k in golden["fingerprint"] if golden["fingerprint"][k] != here.get(k)]
    if differ:
        pytest.skip(f"{path.name} hashes were taken on another environment: "
                    + ", ".join(f"{k} {golden['fingerprint'][k]!r} != {here.get(k)!r}"
                                for k in differ))
    got = compute()
    changed = changed_outputs(golden["sha256"], got)
    assert got.keys() == golden["sha256"].keys()
    assert not changed, f"outputs whose bits changed: {', '.join(changed)}"


def test_outputs_keep_their_bits():
    assert_keeps_its_bits(GOLDEN, outputs)


def test_level5_outputs_keep_their_bits():
    assert_keeps_its_bits(GOLDEN_LEVEL5, level5_outputs)


def test_one_part_gives_the_bits_of_two(monkeypatch):
    # the held hashes were taken with the chunk loops in two processes where
    # the box has two cores; in one part every chunk is computed here
    golden = json.loads(GOLDEN.read_text())
    if golden["fingerprint"] != fingerprint():
        pytest.skip("golden hashes were taken on another environment")
    monkeypatch.setattr(parts, "part_count", lambda: 1)
    loops = []
    stack_chunks = parts.stack_chunks

    def one_part(n, compute):
        loops.append(stack_chunks(n, compute))
        return loops[-1]

    monkeypatch.setattr(parts, "stack_chunks", one_part)
    got = {**table_outputs(), **jittered_outputs()}
    assert {n_parts for _, n_parts in loops} == {1}
    changed = changed_outputs({k: golden["sha256"][k] for k in got}, got)
    assert not changed, f"outputs whose bits changed in one part: {', '.join(changed)}"


def write_new_hashes(path, compute):
    """Add the hashes of `compute()` that the file `path` lacks.

    Refuses when a hash the file holds would change.  A missing file is
    written with this environment's fingerprint.
    """
    golden = (json.loads(path.read_text()) if path.exists()
              else {"fingerprint": fingerprint(), "sha256": {}})
    if golden["fingerprint"] != fingerprint():
        raise SystemExit(f"{path.name} was taken on another environment; not written")
    got = compute()
    changed = changed_outputs(golden["sha256"], got)
    if changed:
        raise SystemExit(f"outputs whose bits changed: {', '.join(changed)}; "
                         f"{path.name} not written")
    added = {k: v for k, v in got.items() if k not in golden["sha256"]}
    golden["sha256"].update(added)
    path.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"{len(added)} hashes added: {', '.join(added) or 'none'}")


def test_write_adds_hashes_and_keeps_the_ones_it_holds(tmp_path):
    path = tmp_path / "golden.json"
    compute = lambda: {"a": "1", "b": "2"}

    def held(sha256, **fields):
        path.write_text(json.dumps({"fingerprint": {**fingerprint(), **fields},
                                    "sha256": sha256}))

    held({"a": "1"})
    write_new_hashes(path, compute)
    assert json.loads(path.read_text())["sha256"] == {"a": "1", "b": "2"}
    held({"a": "0"})
    with pytest.raises(SystemExit, match="outputs whose bits changed: a; golden.json not"):
        write_new_hashes(path, compute)
    assert json.loads(path.read_text())["sha256"] == {"a": "0"}
    held({"a": "1"}, machine="other")
    with pytest.raises(SystemExit, match="another environment"):
        write_new_hashes(path, compute)
    assert json.loads(path.read_text())["sha256"] == {"a": "1"}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    write_new_hashes(GOLDEN, outputs)
    write_new_hashes(GOLDEN_LEVEL5, level5_outputs)
