"""Span tracer around the public functions of plate_dpg's layers.

The tracer patches module attributes of an imported plate_dpg from the
benchmark's side; the package itself carries no instrumentation.  Each
wrapped call is one span.  A span's self time is its duration minus the
durations of the wrapped spans it directly contains, so the self times of
all spans add up to the time the outermost spans cover.  Spans live in
memory as per-name sums and are read once, when the run ends.

A function the package no longer has is skipped and listed in `missing`;
its metrics then read zero.
"""

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self._open = []                   # child time accumulated by each open span
        self.self_s = defaultdict(float)  # span name -> summed self time
        self.calls = defaultdict(int)     # span name -> number of spans
        self.counts = defaultdict(float)  # counter name -> value
        self.covered_s = 0.0              # time inside outermost spans
        self.missing = []

    def span(self, name, fn, count=None):
        """Wrap `fn` so each call records a span; `count(args)` may add counters."""

        def wrapped(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self.self_s[name] += duration - self._open.pop()
                self.calls[name] += 1
                if self._open:
                    self._open[-1] += duration
                else:
                    self.covered_s += duration
                if count is not None:
                    count(args)

        return wrapped

    def wrap(self, owner, attr, name, count=None):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, self.span(name, fn, count))

    def install(self):
        """Wrap the layer boundaries of an imported plate_dpg."""
        from plate_dpg import dpg, driver, hct, linalg, manufactured, mesh, testspace

        self.wrap(mesh, "refine_uniform", "mesh.refine")
        # hct binds eval_scalar_basis by name at import, so both bindings
        # are wrapped under one span name
        self.wrap(testspace, "eval_scalar_basis", "testspace.eval")
        self.wrap(hct, "eval_scalar_basis", "testspace.eval")
        self.wrap(hct, "build_hct_element", "hct.build")
        self.wrap(dpg.ElementKernel, "__init__", "dpg.kernel")
        self.wrap(driver, "element_system", "dpg.element_system")
        self.wrap(dpg, "local_normal_contribution", "dpg.condense",
                  count=self._count_condense)
        self.wrap(dpg, "local_residual", "dpg.residual")
        self.wrap(driver.MeshKernels, "__init__", "driver.kernels")
        self.wrap(driver, "assemble_and_solve", "driver.assembly")
        self.wrap(driver, "run_study", "driver.study")
        self.wrap(linalg, "solve_spd", "linalg.solve")
        self.wrap(manufactured, "l2_errors", "manufactured.l2")
        linalg.spla = _SparseLinalg(self, linalg.spla)

    def overhead_s(self, probes=20000):
        """Tracing cost of this run: spans recorded times the measured cost of one."""

        def noop():
            pass

        probe = Tracer().span("probe", noop)
        start = time.perf_counter()
        for _ in range(probes):
            probe()
        traced = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(probes):
            noop()
        bare = time.perf_counter() - start
        return sum(self.calls.values()) * max(traced - bare, 0.0) / probes

    def _count_condense(self, args):
        # flops of one condensation computed from the array shapes: Cholesky
        # of the n x n Gram matrix, two triangular solves with m right-hand
        # sides, and the m x m product B^T Y
        system = args[0]
        n, m = system.B.shape
        self.counts["dpg.condense_flop"] += n**3 / 3 + 2 * n * n * m + 2 * n * m * m

    def metrics(self):
        """Per-layer metrics in the order BENCHMARK.json lists them, as (value, unit).

        linalg.cg_iters is added only when the run called scipy's cg.
        """
        s, c, k = self.self_s, self.calls, self.counts
        condense_gflop = k["dpg.condense_flop"] / 1e9
        metrics = {
            "mesh.refine_s": (s["mesh.refine"], "s"),
            "testspace.eval_s": (s["testspace.eval"], "s"),
            "testspace.eval_calls": (c["testspace.eval"], "count"),
            "hct.build_s": (s["hct.build"], "s"),
            "hct.elements": (c["hct.build"], "count"),
            "dpg.kernel_s": (s["dpg.kernel"], "s"),
            "dpg.kernels": (c["dpg.kernel"], "count"),
            "driver.kernels_s": (s["driver.kernels"], "s"),
            "dpg.element_system_s": (s["dpg.element_system"], "s"),
            "dpg.element_system_calls": (c["dpg.element_system"], "count"),
            "dpg.condense_s": (s["dpg.condense"], "s"),
            "dpg.condense_calls": (c["dpg.condense"], "count"),
            "dpg.condense_gflop": (condense_gflop, "Gflop"),
            "dpg.condense_gflops": (
                condense_gflop / s["dpg.condense"] if s["dpg.condense"] > 0 else 0.0,
                "Gflop/s",
            ),
            "dpg.residual_s": (s["dpg.residual"], "s"),
            "dpg.residual_calls": (c["dpg.residual"], "count"),
            "driver.assembly_s": (s["driver.assembly"], "s"),
            "linalg.solve_s": (s["linalg.solve"], "s"),
            "linalg.factor_s": (s["linalg.factor"], "s"),
            "linalg.n_free": (k["linalg.n_free"], "count"),
            "linalg.nnz": (k["linalg.nnz"], "count"),
            "manufactured.l2_s": (s["manufactured.l2"], "s"),
        }
        # only a run on the CG path has iterations to report
        if "linalg.cg_iters" in k:
            metrics["linalg.cg_iters"] = (k["linalg.cg_iters"], "count")
        return metrics


class _SparseLinalg:
    """Stand-in for the scipy.sparse.linalg module as plate_dpg.linalg sees it.

    `splu` becomes the span linalg.factor; `cg` gets an iteration-counting
    callback.  Both record the size of the largest system they were given.
    Every other attribute is scipy's own.
    """

    def __init__(self, tracer, spla):
        self._tracer = tracer
        self._spla = spla
        self.splu = tracer.span("linalg.factor", spla.splu,
                                count=lambda args: self._record_size(args[0]))

    def __getattr__(self, name):
        return getattr(self._spla, name)

    def _record_size(self, A):
        counts = self._tracer.counts
        counts["linalg.n_free"] = max(counts["linalg.n_free"], A.shape[0])
        counts["linalg.nnz"] = max(counts["linalg.nnz"], A.nnz)

    def cg(self, A, b, *args, **kwargs):
        self._record_size(A)
        counts = self._tracer.counts
        counts.setdefault("linalg.cg_iters", 0.0)

        def count_iteration(xk):
            counts["linalg.cg_iters"] += 1

        return self._spla.cg(A, b, *args, callback=count_iteration, **kwargs)
