"""Write perfbench/reference.json and cg_direct.npz from the program as it stands.

    python3 perfbench/make_reference.py

reference.json holds, for every thickness the study and sweep workloads
use, the uniform-mesh ndof, L2 errors and estimator at levels 0-4 (via
run_study), and the records of the sweep workload at seed 0.
cg_direct.npz holds the direct-solver fields u, M, theta and trace of
the cg workload's meshes and thicknesses, keyed "level/t/name".
Regenerate them only from a commit whose numbers are known to be right:
the benchmark gates every later commit against them.
"""

import json
import os
import sys

import workloads

DEFAULT_SEED = 0


def main():
    sys.path.insert(0, os.path.join(workloads.ROOT, "src"))
    import numpy as np
    from plate_dpg import driver, mesh as meshmod
    from plate_dpg.dpg import ProblemConfig

    fields = ("ndof", "err_u", "err_M", "err_theta", "eta")
    t_all = sorted(set(workloads.Study.T_LIST) | set(workloads.Sweep.T_LIST), reverse=True)
    uniform = {workloads.t_key(t): {} for t in t_all}
    for r in driver.run_study(t_all, 5, ProblemConfig()):
        uniform[workloads.t_key(r.t)][str(r.level)] = {f: getattr(r, f) for f in fields}

    sweep = workloads.Sweep(DEFAULT_SEED, small=False)
    sweep.setup()
    records = {}
    for out in sweep.solve():
        if "error" in out:
            raise SystemExit(f"sweep solve at t={out['t']} failed: {out['error']}")
        records[workloads.t_key(out["t"])] = {f: out[f] for f in fields}

    reference = {
        "uniform": uniform,
        "sweep": {"seed": DEFAULT_SEED, "level": sweep.level, "records": records},
    }
    with open(os.path.join(workloads.HERE, "reference.json"), "w") as f:
        json.dump(reference, f, indent=1)
        f.write("\n")

    direct = {}
    for level in workloads.Cg.LEVELS:
        mesh = meshmod.mesh_at_level(level)
        kernels = driver.MeshKernels(mesh, ProblemConfig())
        for t in workloads.Cg.T_LIST:
            sol = driver.assemble_and_solve(mesh, ProblemConfig(t=t), kernels)
            for name in workloads.FIELD_NAMES:
                value = getattr(sol, name)
                if value is not None:
                    direct[f"{level}/{workloads.t_key(t)}/{name}"] = value
    np.savez_compressed(workloads.CG_REFERENCE, **direct)


if __name__ == "__main__":
    main()
