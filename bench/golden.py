"""Bit-for-bit check of the solver's larger outputs against bench/golden.json.

    python3 bench/golden.py --check
    python3 bench/golden.py --write

Run from the root of a source checkout; the package is imported from
./src.  Each output is hashed as `tests/test_golden.py` hashes its own
(`float.hex` of each scalar, the raw bytes of each array), and the file
keeps the same environment fingerprint.  The outputs are:

- the CSV and exit status of `plate-dpg study --levels 5` (the acceptance
  study, levels 0-4) and of the clamped study at t = 0 to level 5
  (`study --bc clamped --t-list 0 --levels 6`);
- the report and exit status of `plate-dpg limit` and `plate-dpg verify`;
- the uniform level-5 solves at t = 1e-2 and t = 0, made without given
  tables: the fields, the estimator, the assembled matrix A and the
  counters of `Solution.stats` that are not times.

`--write` adds the hashes the file lacks and keeps every one it holds;
it refuses on another environment, and when a held hash would change.
`--check` exits 1 and names each output whose hash differs from the held
one or that the file lacks.  A run takes 40-60 s and at most 0.8 GB
on a 2-core machine.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from plate_dpg import cli, driver  # noqa: E402
from plate_dpg.dpg import ProblemConfig  # noqa: E402
from plate_dpg.mesh import mesh_at_level  # noqa: E402
from test_golden import (changed_outputs, digest, fingerprint, solve_outputs,  # noqa: E402
                         write_new_hashes)

GOLDEN = Path(__file__).with_name("golden.json")
COMMANDS = {
    "study --levels 5": ["study", "--levels", "5", "--quiet"],
    "clamped study --levels 6": ["study", "--bc", "clamped", "--t-list", "0", "--levels", "6",
                                 "--quiet"],
    "limit": ["limit"],
    "verify": ["verify"],
}
SOLVE_LEVEL = 5


def outputs():
    """{name: SHA-256} of every output this script guards."""
    out = {}
    for name, argv in COMMANDS.items():
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            code = cli.main(argv)
        out[name] = digest(report.getvalue(), code)
    mesh = mesh_at_level(SOLVE_LEVEL)
    for t in (1e-2, 0.0):
        cfg = ProblemConfig(t=t)
        sol = driver.assemble_and_solve(mesh, cfg)
        _, _, A, _ = driver.assemble(mesh, cfg, driver.MeshKernels(mesh, cfg))
        arrays = {"u": sol.u, "M": sol.M, "theta": sol.theta, "trace": sol.trace,
                  "eta_elements": sol.eta_elements,
                  "A.data": A.data, "A.indices": A.indices, "A.indptr": A.indptr}
        out.update(solve_outputs(f"level {SOLVE_LEVEL} t={t:g}", sol, arrays))
    return out


def check():
    """0 when every output has its held hash; else 1, naming the outputs that differ."""
    golden = json.loads(GOLDEN.read_text())
    if golden["fingerprint"] != fingerprint():
        print(f"{GOLDEN.name} was taken on another environment; nothing checked",
              file=sys.stderr)
        return 1
    got = outputs()
    changed = changed_outputs(golden["sha256"], got)
    missing = sorted(set(got) - set(golden["sha256"]))
    for name in changed:
        print(f"differs: {name}", file=sys.stderr)
    for name in missing:
        print(f"not held: {name}", file=sys.stderr)
    print(f"{len(got) - len(changed) - len(missing)} of {len(got)} outputs keep their bits")
    return 1 if changed or missing else 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--check"]:
        return check()
    if argv == ["--write"]:
        write_new_hashes(GOLDEN, outputs)
        return 0
    raise SystemExit(f"usage: {sys.argv[0]} --check | --write")


if __name__ == "__main__":
    sys.exit(main())
