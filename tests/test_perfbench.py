"""The benchmark's calls into the package still run and pass its gate.

`perfbench/workloads.py` drives the package through its public functions
and wraps their module attributes when tracing.  Each workload of
BENCHMARK.json runs here at reduced size, traced, in a fresh process, as
`perfbench/run.py` starts it; a package change that breaks one of those
calls fails here.  Nothing under `perfbench/` is written.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
# tracer targets the package no longer has; the condensation and the
# estimator run stacked, through dpg.condense and dpg.local_residuals, and
# every solve runs through linalg.spd_solver
KNOWN_MISSING = {"plate_dpg.dpg.local_normal_contribution", "plate_dpg.dpg.local_residual",
                 "plate_dpg.linalg.solve_spd"}


@pytest.mark.parametrize("workload", ["study", "sweep"])
def test_benchmark_workload_runs_traced_and_correct(workload):
    spec = {"workload": workload, "seed": 0, "seconds": 0.0, "trace": True, "small": True,
            "setup_only": False, "reference": str(PERFBENCH / "reference.json"),
            "t0": time.perf_counter()}
    proc = subprocess.run([sys.executable, str(PERFBENCH / "workloads.py"), json.dumps(spec)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout.strip().splitlines()[-1])
    assert payload["outcomes"]
    for out in payload["outcomes"]:
        assert out["failures"] == [], out
    assert set(payload["missing"]) <= KNOWN_MISSING
