"""One run of one benchmark workload, in a fresh process.

run.py starts `python3 perfbench/workloads.py SPEC`, where SPEC is a JSON
object with the keys workload, seed, seconds, trace, small, setup_only,
reference and t0 (the parent's perf_counter() just before the start; on
Linux it reads the same monotonic clock in every process).  The last line
this prints is a JSON payload with the timings, the per-solve outcomes
and, with trace on, the per-layer metrics.  A setup_only run stops after
set-up and reports only its time.

The package is driven only through its public functions: mesh_at_level,
refine_uniform and Mesh; MeshKernels; run_study; assemble_and_solve;
l2_errors.  Calls go through the module attributes, so a traced run sees
them.

Why each workload:
- study: the README's acceptance command; 1,012 of its 1,024 level-4
  elements repeat one of 12 shapes, so it is where a per-shape cache or a
  cheaper element kernel must show.
- sweep: a jittered level-3 mesh where no two elements share a shape, so
  a shape cache is bypassed, and whose solve time (t = 0 included) is
  element systems, local condensation, assembly and factorization.
- cg: the only workload whose solves run linalg's conjugate-gradient
  path; the other two use the direct solver.  It is not listed in
  BENCHMARK.json while 2 of its 3 solves miss acceptance criterion 7.
"""

import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CG_REFERENCE = os.path.join(HERE, "cg_direct.npz")

REL_TOL = 1e-10        # committed reference values, same mesh
ERR_FACTOR = 1.5       # jittered mesh against the uniform mesh of its level
RESIDUAL_MAX = 1e-12   # backward error of the global solve
CG_DEV_MAX = 1e-8      # acceptance criterion 7: cg against direct fields
MIN_BATCHES = 2        # solve_s is a median over at least this many batches


def t_key(t):
    return repr(float(t))


def within_rel(a, b, tol):
    return abs(a - b) <= tol * abs(b)


def within_factor(a, b, factor):
    if a == 0.0 and b == 0.0:
        return True
    return a > 0.0 and b > 0.0 and 1.0 / factor <= a / b <= factor


def jittered_mesh(level, seed):
    """Uniform mesh of `level` with interior vertices moved by up to 0.3 h per coordinate.

    h = 2**-(level + 1) is the spacing of the vertex lattice and the
    smallest triangle height, so no triangle can fold.  Boundary vertices
    stay put, which keeps the boundary conditions and the closed-form
    solution valid.
    """
    import numpy as np
    from plate_dpg import mesh as meshmod

    base = meshmod.mesh_at_level(level)
    h = 2.0 ** -(level + 1)
    interior = np.setdiff1d(np.arange(base.num_vertices), base.boundary_vertices)
    rng = np.random.default_rng(seed)
    vertices = base.vertices.copy()
    vertices[interior] += rng.uniform(-0.3 * h, 0.3 * h, size=(interior.size, 2))
    return meshmod.Mesh(vertices, base.triangles, level=level)


def shape_repeat_share(meshes):
    """1 - (distinct edge-vector classes / elements), classes counted per mesh."""
    classes = elements = 0
    for m in meshes:
        coords = m.vertices[m.triangles]
        keys = {(c[1:] - c[0]).tobytes() for c in coords}
        classes += len(keys)
        elements += m.num_triangles
    return 1.0 - classes / elements


def solve_one(mesh, kernels, config, level, keep_fields=False):
    """assemble_and_solve plus l2_errors for one (t, level); errors are recorded."""
    from plate_dpg import driver, manufactured

    out = {"t": config.t, "level": level}
    try:
        sol = driver.assemble_and_solve(mesh, config, kernels)
        errs = manufactured.l2_errors(mesh, sol.u, sol.M, sol.theta, config.t)
    except Exception as err:  # a failed solve is counted, not fatal to the run
        traceback.print_exc()
        out["error"] = f"{type(err).__name__}: {err}"
        return out
    out.update(ndof=sol.n_free, err_u=float(errs[0]), err_M=float(errs[1]),
               err_theta=float(errs[2]), eta=sol.eta, residual_inf=sol.residual_inf)
    if keep_fields:
        out["fields"] = (sol.u, sol.M, sol.theta, sol.trace)
    return out


def compare_record(out, ref):
    """Failure messages of one solve against a committed record at REL_TOL."""
    bad = []
    if out["ndof"] != ref["ndof"]:
        bad.append(f"ndof {out['ndof']} != {ref['ndof']}")
    for name in ("err_u", "err_M", "err_theta", "eta"):
        if not within_rel(out[name], ref[name], REL_TOL):
            bad.append(f"{name} {out[name]!r} != {ref[name]!r}")
    return bad


class Study:
    """run_study over t in {1e-2, 1e-4, 1e-6, 1e-8} and levels 0-4, direct solver."""

    T_LIST = (1e-2, 1e-4, 1e-6, 1e-8)
    SETUP_RUNS = 2  # one set-up takes ~20 s; a third would make a run ~25 % longer

    def __init__(self, seed, small):
        self.levels = 2 if small else 5

    def setup(self):
        from plate_dpg import driver, mesh as meshmod
        from plate_dpg.dpg import ProblemConfig

        self.config = ProblemConfig()
        self.meshes = [meshmod.mesh_at_level(0)]
        while len(self.meshes) < self.levels:
            self.meshes.append(meshmod.refine_uniform(self.meshes[-1]))
        self.kernels = [driver.MeshKernels(m, self.config) for m in self.meshes]

    def solve(self):
        from plate_dpg import driver

        try:
            # run_study extends the chains it is given, so it gets copies
            records = driver.run_study(self.T_LIST, self.levels, self.config,
                                       list(self.meshes), list(self.kernels))
        except Exception as err:  # the study writes no CSV: every solve is lost
            traceback.print_exc()
            msg = f"{type(err).__name__}: {err}"
            return [{"t": t, "level": lv, "error": msg}
                    for t in self.T_LIST for lv in range(self.levels)]
        return [{"t": r.t, "level": r.level, "ndof": r.ndof, "err_u": r.err_u,
                 "err_M": r.err_M, "err_theta": r.err_theta, "eta": r.eta}
                for r in records]

    def check(self, out, reference):
        return compare_record(out, reference["uniform"][t_key(out["t"])][str(out["level"])])


class Sweep:
    """t in {1e-2, 1e-5, 1e-8, 0} on one jittered level-3 mesh, direct solver."""

    T_LIST = (1e-2, 1e-5, 1e-8, 0.0)
    SETUP_RUNS = 3

    def __init__(self, seed, small):
        self.seed = seed
        self.level = 2 if small else 3

    def setup(self):
        from plate_dpg import driver
        from plate_dpg.dpg import ProblemConfig

        self.meshes = [jittered_mesh(self.level, self.seed)]
        self.kernels = driver.MeshKernels(self.meshes[0], ProblemConfig())

    def solve(self):
        from plate_dpg.dpg import ProblemConfig

        return [solve_one(self.meshes[0], self.kernels, ProblemConfig(t=t), self.level)
                for t in self.T_LIST]

    def check(self, out, reference):
        ref = reference["sweep"]
        if (self.seed, self.level) == (ref["seed"], ref["level"]):
            return compare_record(out, ref["records"][t_key(out["t"])])
        # any other jitter: a small backward error, and errors close to the
        # uniform mesh's at the same (level, t)
        bad = []
        if not out["residual_inf"] <= RESIDUAL_MAX:
            bad.append(f"residual_inf {out['residual_inf']:.3e} > {RESIDUAL_MAX:g}")
        uniform = reference["uniform"][t_key(out["t"])][str(self.level)]
        for name in ("err_u", "err_M", "err_theta"):
            if not within_factor(out[name], uniform[name], ERR_FACTOR):
                bad.append(f"{name} {out[name]:.6e} not within x{ERR_FACTOR} "
                           f"of uniform {uniform[name]:.6e}")
        return bad


class Cg:
    """t in {1e-2, 1e-8, 0} on the uniform level-3 mesh with solver="cg"."""

    T_LIST = (1e-2, 1e-8, 0.0)
    SETUP_RUNS = 3
    LEVELS = (1, 3)  # reduced and full size

    def __init__(self, seed, small):
        self.level = self.LEVELS[0] if small else self.LEVELS[1]

    def setup(self):
        from plate_dpg import driver, mesh as meshmod
        from plate_dpg.dpg import ProblemConfig

        self.meshes = [meshmod.mesh_at_level(self.level)]
        self.kernels = driver.MeshKernels(self.meshes[0], ProblemConfig())

    def solve(self):
        from plate_dpg.dpg import ProblemConfig

        return [solve_one(self.meshes[0], self.kernels, ProblemConfig(t=t, solver="cg"),
                          self.level, keep_fields=True)
                for t in self.T_LIST]

    def check(self, out, reference):
        import numpy as np

        worst = 0.0
        with np.load(CG_REFERENCE) as direct:
            for name, b in zip(FIELD_NAMES, out.pop("fields")):
                key = f"{self.level}/{t_key(out['t'])}/{name}"
                if b is not None:
                    a = direct[key]
                    worst = max(worst, float(np.abs(a - b).max() / np.abs(a).max()))
        out["cg_dev"] = worst
        if not worst < CG_DEV_MAX:
            return [f"direct-vs-cg dev {worst:.2e} >= {CG_DEV_MAX:g}"]
        return []


WORKLOADS = {"study": Study, "sweep": Sweep, "cg": Cg}
FIELD_NAMES = ("u", "M", "theta", "trace")


def environment():
    """Interpreter, library and BLAS versions, cores, thread variables and commit."""
    import platform

    import numpy
    import scipy

    def blas(config):
        dep = config.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', '?')} {dep.get('version', '?')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout read from .git, or 'none' outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def run(spec):
    """Set up, solve in batches for spec['seconds'], check; returns the payload."""
    t0 = spec["t0"]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import plate_dpg  # noqa: F401  (import time belongs to setup)

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    work = WORKLOADS[spec["workload"]](spec["seed"], spec["small"])
    work.setup()
    setup_s = time.perf_counter() - t0
    if spec["setup_only"]:
        return {"setup_s": setup_s}

    # solve in batches: at least MIN_BATCHES, then another only if it
    # should end within the run's seconds.  A traced run does one batch,
    # so its counts compare.
    batches = []
    outcomes = []
    while True:
        start = time.perf_counter()
        outcomes.extend(work.solve())
        batches.append(time.perf_counter() - start)
        if tracer is not None or (len(batches) >= MIN_BATCHES
                                  and sum(batches) + batches[-1] > spec["seconds"]):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        layers = tracer.metrics()
        layers["mesh.shape_repeat_share"] = (shape_repeat_share(work.meshes), "ratio")
        covered_s = tracer.covered_s
        overhead_s = tracer.overhead_s()

    start = time.perf_counter()
    with open(spec["reference"]) as f:
        reference = json.load(f)
    for out in outcomes:
        out["failures"] = [out["error"]] if "error" in out else work.check(out, reference)
    check_s = (time.perf_counter() - start) / len(batches)

    payload = {
        "setup_s": setup_s,
        "batch_s": batches,
        "check_s": check_s,
        "peak_rss_mb": peak_rss_mb,
        "outcomes": outcomes,
        "env": environment(),
    }
    if tracer is not None:
        payload["layers"] = layers
        payload["covered_s"] = covered_s
        payload["overhead_s"] = overhead_s
        payload["missing"] = tracer.missing
    return payload


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
