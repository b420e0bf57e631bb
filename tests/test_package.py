"""The installed package holds and imports only what the solver, the CLI and the API run.

A solve loads no module it does not call: scipy.special, once imported
for one Gauss-Jacobi rule, is a reference of the tests only.

Every module-level function and class in `src/plate_dpg` must be exported
through `plate_dpg.__all__`, named by the benchmark in `perfbench/`, or
used outside its own definition by package code that is itself reached.
Every method and property of a package class, dunders aside, must be read
by package code outside its own definition or named by the benchmark.
The benchmark's tracer (`perfbench/tracer.py`) only wraps what others
call, so a name it alone mentions is not reached.  Code that only tests
reach belongs under `tests/` (see `oracles.py`).
"""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import plate_dpg

PACKAGE = Path(plate_dpg.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _used_names(node):
    """Names and attributes that `node` reads."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _benchmark_text(perfbench):
    """The benchmark's sources, its tracer aside."""
    return "\n".join(p.read_text() for p in sorted(perfbench.glob("*.py"))
                     if p.name != "tracer.py")


def _reads(node):
    """How often `node` reads each name or attribute."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                   for sub in ast.walk(node)
                   if isinstance(sub, (ast.Name, ast.Attribute))
                   and isinstance(sub.ctx, ast.Load))


def unread_members(package=PACKAGE, perfbench=PERFBENCH):
    """`module.Class.name` of every non-dunder method and property nothing outside the tests reads."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    bench = _benchmark_text(perfbench)
    out = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for member in cls.body:
                name = getattr(member, "name", "")
                if (not isinstance(member, ast.FunctionDef) or name.startswith("__")
                        or reads[name] > _reads(member)[name]
                        or re.search(rf"\b{re.escape(name)}\b", bench)):
                    continue
                out.append(f"{module}.{cls.name}.{name}")
    return out


def unreferenced_definitions(package=PACKAGE, perfbench=PERFBENCH):
    """`module.name` of every top-level def/class that nothing outside the tests reaches.

    A definition counts as used only when a statement that is itself kept
    uses it, so a helper whose sole caller is another unreached helper is
    reported as well.
    """
    nodes = []               # (module, name or None, names the statement reads)
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            name = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            nodes.append((path.stem, name, _used_names(node)))
    bench = _benchmark_text(perfbench)
    roots = set(plate_dpg.__all__)
    kept = [n for n in nodes if n[1] is None or n[1] in roots
            or re.search(rf"\b{re.escape(n[1])}\b", bench)]
    dropped = [n for n in nodes if n not in kept]
    while True:
        reached = [n for n in dropped
                   if any(n[1] in names for _, other, names in kept if other != n[1])]
        if not reached:
            return [f"{module}.{name}" for module, name, _ in dropped]
        kept += reached
        dropped = [n for n in dropped if n not in reached]


def test_every_definition_is_reached_outside_the_tests():
    assert unreferenced_definitions() == []


def test_every_method_and_property_is_read_outside_the_tests():
    assert unread_members() == []


def test_a_solve_loads_no_scipy_special():
    # quadrature.py imported scipy.special for its Gauss-Jacobi factors, and
    # every process paid for that module; the factors are now a table
    script = """
import sys
import plate_dpg, plate_dpg.cli
from plate_dpg import driver, mesh_at_level, ProblemConfig
msh, cfg = mesh_at_level(1), ProblemConfig(t=1e-2, solver="direct")
driver.assemble_and_solve(msh, cfg, driver.MeshKernels(msh, cfg))
print(sorted(name for name in sys.modules if name.startswith("scipy.special")))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(PACKAGE.parent), env.get("PYTHONPATH"))
                                        if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_the_check_sees_a_test_only_function(tmp_path):
    package, bench = tmp_path / "package", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (bench / "run.py").write_text("import mod\nmod.benchmarked()\n")
    (bench / "tracer.py").write_text("import mod\nmod.traced = wrap(mod.traced)\n")
    (package / "mod.py").write_text(
        "def used():\n    return 1\n\n"
        "def oracle():\n    return helper()\n\n"
        "def helper():\n    return oracle\n\n"
        "def benchmarked():\n    pass\n\n"
        "def traced():\n    pass\n\n"
        "VALUE = used()\n\n"
        "class Kept:\n"
        "    def __init__(self):\n        self.value = self.read()\n\n"
        "    def read(self):\n        return self.size\n\n"
        "    @property\n    def size(self):\n        return 1\n\n"
        "    def unread(self):\n        return self.unread()\n\n"
        "    @property\n    def unread_property(self):\n        return 2\n\n"
        "    def benchmarked(self):\n        pass\n\n"
        "KEPT = Kept()\n")
    assert unreferenced_definitions(package, bench) == ["mod.oracle", "mod.helper",
                                                        "mod.traced"]
    assert unread_members(package, bench) == ["mod.Kept.unread", "mod.Kept.unread_property"]
