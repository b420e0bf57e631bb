"""Bit-for-bit guard: the solver's outputs hash to the values in golden.json.

Each output is hashed with SHA-256 over exact values: `float.hex` of each
scalar and the raw bytes of each array (with its dtype and shape).  The
outputs are the acceptance study on the four benchmark thicknesses at
levels 0-3, the clamped study at t = 0 on levels 1-3, every `MeshKernels`
table of uniform level 2, the fields, estimator, assembled matrix, kept
element stacks and the counters of `Solution.stats` (STATS) of one
jittered level-3 mesh at t = 1e-2 and t = 0, the Kirchhoff limit check at
level 2 and the `verify` report.

The hashes hold for one environment, whose fingerprint golden.json keeps.
On another one the test is skipped and names the fields that differ.

    PYTHONPATH=src python tests/test_golden.py --write

adds the hashes of outputs that golden.json does not hold yet, computed
from this tree, and keeps every hash it holds.  It refuses on another
environment, and it exits non-zero without writing when an output it
holds has other bits, naming that output.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from oracles import jittered_mesh
from plate_dpg import cli, driver
from plate_dpg.dpg import ProblemConfig
from plate_dpg.mesh import mesh_at_level

GOLDEN = Path(__file__).with_name("golden.json")
STUDY_T = (1e-2, 1e-4, 1e-6, 1e-8)  # the t list of the benchmark's study workload
STUDY_LEVELS = 4
JITTER_LEVEL, JITTER_SEED = 3, 0
CLAMPED_LEVELS = 4  # levels 1-3: clamped studies start at level 1
TABLES_LEVEL = 2
# the fields of Solution.stats that are not times; factor_stored moves with
# any SuperLU option
STATS = ("n_free", "nnz", "factor_nnz", "factor_stored", "residual_inf",
         "gram_pivot_min", "eta_max", "eta_mean", "kept_mb")


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


def outputs():
    """{name: SHA-256} of every guarded output of this tree."""

    def study(*args):
        return digest(*(getattr(r, name) for r in driver.run_study(*args)
                        for name in driver.CSV_HEADER.split(",")))

    out = {"study": study(STUDY_T, STUDY_LEVELS, ProblemConfig()),
           "clamped study": study((0.0,), CLAMPED_LEVELS, ProblemConfig(t=0.0, bc="clamped"))}

    tables = driver.MeshKernels(mesh_at_level(TABLES_LEVEL), ProblemConfig())
    for name in tables.NAMES:
        out[f"tables level={TABLES_LEVEL} {name}"] = digest(getattr(tables, name))

    mesh = jittered_mesh(JITTER_LEVEL, JITTER_SEED)
    kernels = driver.MeshKernels(mesh, ProblemConfig())
    for t in (1e-2, 0.0):
        cfg = ProblemConfig(t=t)
        sol = driver.assemble_and_solve(mesh, cfg, kernels)
        _, (Lp, dinv, B, l), A, _ = driver.assemble(mesh, cfg, kernels)
        arrays = {"u": sol.u, "M": sol.M, "theta": sol.theta, "trace": sol.trace,
                  "eta_elements": sol.eta_elements,
                  "A.data": A.data, "A.indices": A.indices, "A.indptr": A.indptr,
                  "kept L": Lp, "kept dinv": dinv, "kept B": B, "kept l": l}
        for name, a in arrays.items():
            out[f"jittered t={t:g} {name}"] = digest("none" if a is None else a)
        for name in STATS:
            out[f"jittered t={t:g} stats {name}"] = digest(sol.stats[name])

    limit = driver.kirchhoff_limit_check(level=2)
    out["limit"] = digest(*(v for row in limit["rows"] for v in row),
                          str(limit["monotone_u"]), str(limit["monotone_M"]),
                          limit["identity_rel_err"])

    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        code = cli.main(["verify"])
    out["verify"] = digest(report.getvalue(), code)
    return out


def test_outputs_keep_their_bits():
    golden = json.loads(GOLDEN.read_text())
    here = fingerprint()
    differ = [k for k in golden["fingerprint"] if golden["fingerprint"][k] != here.get(k)]
    if differ:
        pytest.skip("golden hashes were taken on another environment: "
                    + ", ".join(f"{k} {golden['fingerprint'][k]!r} != {here.get(k)!r}"
                                for k in differ))
    got = outputs()
    changed = sorted(k for k in golden["sha256"] if got.get(k) != golden["sha256"][k])
    assert got.keys() == golden["sha256"].keys()
    assert not changed, f"outputs whose bits changed: {', '.join(changed)}"


def write_new_hashes():
    """Add the hashes golden.json lacks; refuse if a hash it holds would change."""
    golden = json.loads(GOLDEN.read_text())
    if golden["fingerprint"] != fingerprint():
        raise SystemExit(f"{GOLDEN.name} was taken on another environment; not written")
    got = outputs()
    changed = sorted(k for k, v in golden["sha256"].items() if got.get(k) != v)
    if changed:
        raise SystemExit(f"outputs whose bits changed: {', '.join(changed)}; "
                         f"{GOLDEN.name} not written")
    added = {k: v for k, v in got.items() if k not in golden["sha256"]}
    golden["sha256"].update(added)
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"{len(added)} hashes added: {', '.join(added) or 'none'}")


def test_write_adds_hashes_and_keeps_the_ones_it_holds(tmp_path, monkeypatch):
    this = sys.modules[__name__]
    monkeypatch.setattr(this, "GOLDEN", tmp_path / "golden.json")
    monkeypatch.setattr(this, "outputs", lambda: {"a": "1", "b": "2"})

    def held(sha256, **fields):
        this.GOLDEN.write_text(json.dumps({"fingerprint": {**fingerprint(), **fields},
                                           "sha256": sha256}))

    held({"a": "1"})
    write_new_hashes()
    assert json.loads(this.GOLDEN.read_text())["sha256"] == {"a": "1", "b": "2"}
    held({"a": "0"})
    with pytest.raises(SystemExit, match="outputs whose bits changed: a; golden.json not"):
        write_new_hashes()
    assert json.loads(this.GOLDEN.read_text())["sha256"] == {"a": "0"}
    held({"a": "1"}, machine="other")
    with pytest.raises(SystemExit, match="another environment"):
        write_new_hashes()
    assert json.loads(this.GOLDEN.read_text())["sha256"] == {"a": "1"}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    write_new_hashes()
