"""plate-dpg benchmark: one workload per invocation, each run in a fresh process.

    python3 perfbench/run.py --workload {study,sweep,cg} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
./src.  The run's process is started fresh, so element kernels start
cold and peak RSS belongs to that run alone.  It sets up the workload,
solves in batches for about S seconds (at least two batches) and checks
every solve against its reference.  Workloads with a short set-up are
also set up in further fresh processes, and setup_s is the median.  Stdout gets a report with the
environment, one line per solve of the first batch and every metric with
its unit; its last line is the JSON result.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
makes a traced run of one batch and reports the per-layer metrics, the
traced wall_s (traced minus untraced wall_s is the tracing overhead), an
in-run estimate of that overhead and the share of the traced wall_s that
no span covers.  perfbench/README.md lists the metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
DEADLINE_S = 175.0  # a run of the command ends within 180 s


class BenchError(Exception):
    pass


def run_child(spec, timeout):
    """One workload run in a fresh interpreter; returns its payload."""
    spec = dict(spec, t0=time.perf_counter())
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "workloads.py"), json.dumps(spec)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{spec['workload']} run did not end within {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{spec['workload']} run exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_benchmark(workload, seed, seconds, trace, small=False, reference=REFERENCE):
    """Run one workload; returns (report lines, result dict)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "plate_dpg", "__init__.py")):
        raise BenchError(f"no plate_dpg sources under {os.path.join(ROOT, 'src')}")
    deadline = time.perf_counter() + DEADLINE_S
    spec = {"workload": workload, "seed": seed, "seconds": seconds, "trace": bool(trace),
            "small": small, "setup_only": False, "reference": reference}
    # a traced run sets up once, so its counts cover one set-up
    setups = [run_child(dict(spec, setup_only=True), deadline - time.perf_counter())["setup_s"]
              for _ in range(0 if trace else WORKLOADS[workload].SETUP_RUNS - 1)]
    run = run_child(spec, deadline - time.perf_counter())
    setup_s = statistics.median(setups + [run["setup_s"]])
    solve_s = statistics.median(run["batch_s"])
    # the wait for one verified result, from the medians
    wall_s = setup_s + solve_s + run["check_s"]

    outcomes = run["outcomes"]
    failed = sum(1 for out in outcomes if out["failures"])
    report = [
        f"workload {workload}  seed {seed}  seconds {seconds}  trace {trace}",
        "env " + "  ".join(f"{k} {v}" for k, v in run["env"].items()),
    ]
    for out in outcomes[: len(outcomes) // len(run["batch_s"])]:
        report.append(describe(out))
    for out in outcomes:
        for msg in out["failures"]:
            report.append(f"FAILED t={out['t']:g} level={out['level']}: {msg}")
    report.append(f"solves {len(outcomes)} attempted, {failed} failed, "
                  f"failed_share {failed / len(outcomes):.4g}, "
                  f"set-ups {len(setups) + 1}, batches {len(run['batch_s'])}")

    if trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in run["layers"].items()}
        metrics["trace.wall_s"] = {"value": wall_s, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": run["overhead_s"], "unit": "s"}
        metrics["trace.unaccounted_share"] = {
            "value": 1.0 - run["covered_s"] / wall_s, "unit": "ratio"}
        report.append("dpg.condense_gflop is computed from the array shapes, not counted")
        if run["missing"]:
            report.append("not traced (missing from the package): "
                          + ", ".join(run["missing"]))
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "solve_s": {"value": solve_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    for name, m in metrics.items():
        report.append(f"{name:28s} {m['value']:14.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
              "metrics": metrics}
    return report, result


def describe(out):
    head = f"t={out['t']:<6g} level={out['level']}"
    if "error" in out:
        return f"{head}  error"
    line = (f"{head}  ndof={out['ndof']:<6d} err_u={out['err_u']:.6e} "
            f"err_M={out['err_M']:.6e} err_theta={out['err_theta']:.6e} "
            f"eta={out['eta']:.6e}")
    if "cg_dev" in out:
        line += f" cg_dev={out['cg_dev']:.2e}"
    return line + ("  FAILED" if out["failures"] else "  ok")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report, result = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1
    print("\n".join(report))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
