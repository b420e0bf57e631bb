"""The installed package holds only what the solver, the CLI and the API run.

Every module-level function and class in `src/plate_dpg` must be exported
through `plate_dpg.__all__`, named by the benchmark in `perfbench/`, or
used outside its own definition by package code that is itself reached.
The benchmark's tracer (`perfbench/tracer.py`) only wraps what others
call, so a name it alone mentions is not reached.  Code that only tests
reach belongs under `tests/` (see `oracles.py`).
"""

import ast
import re
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
    bench = "\n".join(p.read_text() for p in sorted(perfbench.glob("*.py"))
                      if p.name != "tracer.py")
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
        "VALUE = used()\n")
    assert unreferenced_definitions(package, bench) == ["mod.oracle", "mod.helper",
                                                        "mod.traced"]
