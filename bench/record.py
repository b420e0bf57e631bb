"""Record the measured performance of one checkout as BENCH_<label>.json.

    python3 bench/record.py [--label LABEL] [--out PATH]

Run from the root of a source checkout; everything is imported from
./src, and each measurement runs in a fresh interpreter.  The file holds:

- the medians `perfbench/run.py --trace 0 --seconds 15` reports for the
  `study`, `sweep` and `cg` workloads (setup_s, solve_s, wall_s,
  peak_rss_mb);
- single solves of the manufactured problem on uniform levels 4, 5 and 6
  at t = 1e-2 and t = 0, each run twice: once given `MeshKernels` the
  run holds through the solve (`"tables": "held"`), and once as
  `assemble_and_solve(mesh, config)` with no tables given, which frees
  them when `assemble` returns (`"tables": "none"`).  Each run records
  its `total_s`, its `mesh_kernels_s` (the seconds of the explicit
  `MeshKernels` call for held tables, timed with one `perf_counter`
  pair, and the solve's own `tables_s` for none), its peak RSS, and from
  `Solution.stats` the seconds of the element systems, of assembly, of
  the sparse solve (with its backward-error check and the export of the
  factor for its pivot check) and of the estimator (`systems_s`,
  `assembly_s`, `solve_s`, `estimator_s`), the number of BLAS libraries
  the solve ran on one thread (`blas_pinned`), the seconds, entries and
  stored entries of the sparse LU factor (`factor_s`, `factor_nnz`,
  `factor_stored`), the number of processes the element systems ran in
  (`parts`) and the MB of the stacks kept from the element systems to
  the estimator (`kept_mb`), and `peak_pss_mb`, the peak of the summed
  proportional set size of the solve's process tree, which unlike the
  peak RSS also counts a forked child;
- the wall time and summary line of the Tier-1 test command;
- the Python, numpy and scipy versions, the core count, the BLAS
  library of numpy and of scipy, and `blas_threads`, the thread count
  of each distinct OpenBLAS library they have loaded, numpy's first, as
  `linalg._blas_thread_controls` finds them (empty where none is found).
"""

import argparse
import json
import os
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("study", "sweep", "cg")
# the level-6 solves take about 30-60 s and up to 3.2 GB each; they run
# one after the other, as every solve does
SOLVES = [(4, 1e-2), (4, 0.0), (5, 1e-2), (5, 0.0), (6, 1e-2), (6, 0.0)]
TABLES = ("held", "none")

# run in a fresh interpreter: one timed solve, printed as one JSON line
SOLVE = """
import json, resource, sys, time
from plate_dpg import driver
from plate_dpg.dpg import ProblemConfig
from plate_dpg.mesh import mesh_at_level

# the fields of Solution.stats a record holds
STATS = ("systems_s", "assembly_s", "solve_s", "estimator_s", "blas_pinned", "factor_s",
         "factor_nnz", "factor_stored", "parts", "kept_mb")
level, t, tables = int(sys.argv[1]), float(sys.argv[2]), sys.argv[3]
mesh, config = mesh_at_level(level), ProblemConfig(t=t)
start = time.perf_counter()
kernels = driver.MeshKernels(mesh, config) if tables == "held" else None
mesh_kernels_s = time.perf_counter() - start
sol = driver.assemble_and_solve(mesh, config, kernels)
total = time.perf_counter() - start
if kernels is None:
    mesh_kernels_s = sol.stats["tables_s"]
print(json.dumps(dict(level=level, t=t, tables=tables, n_free=sol.n_free, total_s=total,
                      mesh_kernels_s=mesh_kernels_s,
                      **{name: sol.stats[name] for name in STATS},
                      residual_inf=sol.residual_inf,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)))
"""

ENVIRONMENT = """
import json, os, platform, numpy, scipy
from plate_dpg.linalg import _blas_thread_controls

def blas(config):
    dep = config.get("Build Dependencies", {}).get("blas", {})
    return f"{dep.get('name', '?')} {dep.get('version', '?')}"

print(json.dumps({
    "python": platform.python_version(), "numpy": numpy.__version__,
    "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
    "numpy_blas": blas(numpy.show_config(mode="dicts")),
    "scipy_blas": blas(scipy.show_config(mode="dicts")),
    "blas_threads": [get() for get, _ in _blas_thread_controls()],
    "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
}))
"""


def run(args, env=None, check=True):
    """stdout of a command run from the checkout root; with `check`, exit if it fails."""
    proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True, env=env)
    if check and proc.returncode != 0:
        raise SystemExit(f"record.py: {' '.join(args)} exited with code {proc.returncode}")
    return proc.stdout


def tree_pss_kb(pid):
    """Summed PSS in kB of process `pid` and its descendants, 0 for one that has ended."""
    total = 0
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            total += sum(int(line.split()[1]) for line in f if line.startswith("Pss:"))
        children = []
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as f:
                children += f.read().split()
    except (FileNotFoundError, ProcessLookupError):
        return total
    return total + sum(tree_pss_kb(int(child)) for child in children)


def run_sampled(args, env, interval=0.02):
    """(stdout, peak summed PSS in MB) of a command's process tree, sampled every `interval` s."""
    proc = subprocess.Popen(args, cwd=ROOT, stdout=subprocess.PIPE, text=True, env=env)
    done = threading.Event()
    peak = [0]

    def sample():
        while not done.wait(interval):
            peak[0] = max(peak[0], tree_pss_kb(proc.pid))

    sampler = threading.Thread(target=sample)
    sampler.start()
    try:
        out, _ = proc.communicate()
    finally:
        done.set()
        sampler.join()
    if proc.returncode != 0:
        raise SystemExit(f"record.py: {' '.join(args)} exited with code {proc.returncode}")
    return out, peak[0] / 1024


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", help="name of the measured code (default: git short hash)")
    parser.add_argument("--out", help="output path (default: BENCH_<label>.json in the root)")
    args = parser.parse_args(argv)
    label = args.label or run(["git", "rev-parse", "--short", "HEAD"]).strip()
    out = args.out or os.path.join(ROOT, f"BENCH_{label}.json")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in ("src", os.environ.get("PYTHONPATH")) if p))

    record = {"label": label,
              "environment": last_json(run([sys.executable, "-c", ENVIRONMENT], env))}
    record["perfbench"] = {}
    for workload in WORKLOADS:
        result = last_json(run([sys.executable, "perfbench/run.py", "--workload", workload,
                                "--trace", "0", "--seconds", "15"]))
        record["perfbench"][workload] = {
            "correct": result["correct"], "attempted": result["attempted"],
            **{name: m["value"] for name, m in result["metrics"].items()}}
        print(workload, record["perfbench"][workload], file=sys.stderr)
    record["solves"] = []
    for level, t in SOLVES:
        for tables in TABLES:
            stdout, peak_pss_mb = run_sampled(
                [sys.executable, "-c", SOLVE, str(level), repr(t), tables], env)
            solve = dict(last_json(stdout), peak_pss_mb=peak_pss_mb)
            record["solves"].append(solve)
            print("solve", solve, file=sys.stderr)
    start = time.perf_counter()
    # a failing test is recorded in the summary line, not raised
    summary = run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                  env, check=False).strip().splitlines()[-1]
    record["tier1"] = {"wall_s": time.perf_counter() - start, "summary": summary}
    print("tier1", record["tier1"], file=sys.stderr)
    with open(out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
