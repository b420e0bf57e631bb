"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at reduced size (study on levels 0-1, sweep on a
jittered level-2 mesh, cg on level 1), with and without tracing, and
checks that each run emits exactly the metrics BENCHMARK.json names, with
their units (a traced cg run adds linalg.cg_iters, since cg is not listed
there), and that study and sweep pass their correctness gate.  Then
it runs study against a reference with one deliberately wrong value and
checks that exactly that solve is counted as failed, once per batch.  Exits 1 on any
problem.
"""

import json
import os
import sys
import tempfile

import run
from workloads import MIN_BATCHES


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = {0: bench["end_to_end"], 1: bench["per_layer"]}
    problems = []

    for workload in run.WORKLOADS:
        for trace in (0, 1):
            _, result = run.run_benchmark(workload, seed=3, seconds=0.0, trace=trace,
                                          small=True)
            label = f"{workload} trace {trace}"
            got = result["metrics"]
            names = [m["name"] for m in wanted[trace]]
            if workload == "cg" and trace:
                names.append("linalg.cg_iters")
            if sorted(got) != sorted(names):
                problems.append(f"{label}: metrics {sorted(got)} != {sorted(names)}")
            for m in wanted[trace]:
                if m["name"] in got and got[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{label}: {m['name']} unit {got[m['name']]['unit']}")
            if workload != "cg" and result["failed"]:
                problems.append(f"{label}: {result['failed']} solves failed")
            print(f"{label}: {result['attempted']} solves, {result['failed']} failed",
                  file=sys.stderr)

    with open(run.REFERENCE) as f:
        reference = json.load(f)
    reference["uniform"]["0.01"]["1"]["err_u"] *= 1.0 + 1e-6
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=run.HERE) as tmp:
        path = os.path.join(tmp, "reference.json")
        with open(path, "w") as f:
            json.dump(reference, f)
        _, result = run.run_benchmark("study", seed=0, seconds=0.0, trace=0, small=True,
                                      reference=path)
    # with seconds=0 the run makes MIN_BATCHES batches, each with one bad solve
    if result["failed"] != MIN_BATCHES or result["correct"]:
        problems.append(f"wrong reference: failed {result['failed']}, "
                        f"correct {result['correct']} (want {MIN_BATCHES}, false)")

    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "ok"), file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
