"""Command line entry point: convergence studies and built-in checks."""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .dpg import ElementKernel, ProblemConfig, condense, gram
from .driver import DofMap, kirchhoff_limit_check, run_study, write_csv
from .hct import build_hct_element
from .linalg import SolveError
from .manufactured import verify_manufactured
from .mesh import mesh_at_level, write_mesh_text
from .quadrature import map_to_triangles, triangle_rule


def _parse_t_list(text):
    values = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        values.append(float(item))
    if not values:
        raise argparse.ArgumentTypeError("empty thickness list")
    return values


def _reject(args, message, status=2):
    """The one-line error of argparse, without its usage block; exit status `status`."""
    print(f"plate-dpg {args.command}: error: {message}", file=sys.stderr)
    return status


def _path_error(path):
    """Why `path` cannot be opened for writing, or None; no file is created."""
    if os.path.isdir(path):
        return f"{path} is a directory"
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        return f"{path}: no directory {folder}"
    return None


def _cmd_study(args):
    # the files are written only after every solve
    outputs = {"--out": None if args.out == "-" else args.out,
               "--stats": args.stats, "--dump-mesh": args.dump_mesh}
    for flag, path in outputs.items():
        if path is not None and (error := _path_error(path)):
            return _reject(args, f"{flag} {error}")
    progress = None
    if not args.quiet:
        progress = lambda line: print(line, file=sys.stderr)
    meshes = []
    config = ProblemConfig(t=args.t_list[0], bc=args.bc, solver=args.solver)
    records = run_study(args.t_list, args.levels, config, meshes, progress=progress)
    if args.out == "-":
        write_csv(records, sys.stdout)
    else:
        with open(args.out, "w") as fh:
            write_csv(records, fh)
        print(f"wrote {len(records)} records to {args.out}", file=sys.stderr)
    if args.stats:
        with open(args.stats, "w") as fh:
            for r in records:
                fh.write(json.dumps({"level": r.level, "t": r.t, "stats": r.stats}) + "\n")
        print(f"wrote {len(records)} solve stats to {args.stats}", file=sys.stderr)
    if args.dump_mesh:
        mesh = meshes[args.levels - 1]
        with open(args.dump_mesh, "w") as fh:
            write_mesh_text(mesh, fh)
        print(f"wrote level-{mesh.level} mesh to {args.dump_mesh}",
              file=sys.stderr)
    return 0


def _check(lines, name, value, tol):
    ok = value <= tol
    lines.append(f"{'ok  ' if ok else 'FAIL'} {name:<42s} {value:.3e} "
                 f"(tol {tol:.0e})")
    return ok


def _property_suite(lines):
    """Fast structural checks of the discretization building blocks."""
    ok = True
    rule = triangle_rule(14)
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    (pts,), (w,) = map_to_triangles(rule, tri[None])
    # integral of x^9 y^4 over the reference triangle
    exact = 362880.0 * 24.0 / 1307674368000.0
    got = float(w @ (pts[:, 0] ** 9 * pts[:, 1] ** 4))
    ok &= _check(lines, "quadrature exactness (degree 13 monomial)",
                 abs(got - exact) / exact, 1e-12)

    mesh = mesh_at_level(0)
    n_free = DofMap(mesh, ProblemConfig(t=1e-2)).n_free
    ok &= _check(lines, "free dof count, level 0, t > 0",
                 abs(n_free - 44), 0)
    n_free0 = DofMap(mesh, ProblemConfig(t=0.0)).n_free
    ok &= _check(lines, "free dof count, level 0, t = 0",
                 abs(n_free0 - 36), 0)

    rng = np.random.default_rng(7)
    coords = rng.uniform(-1.0, 1.0, (3, 2))
    if np.linalg.det(coords[1:] - coords[0]) < 0:
        coords = coords[[0, 2, 1]]
    element = build_hct_element(coords)
    tables = ElementKernel([coords])
    worst = 0.0
    for t in (0.0, 1e-8, 1.0):
        G = gram(tables, t)
        try:
            # no columns to condense: only the factorization and its checks run
            condense(G, np.zeros(G.shape[:2] + (0,)), np.zeros(G.shape[:2]))
        except np.linalg.LinAlgError:
            worst = np.inf
    ok &= _check(lines, "Gram matrices positive definite", worst, 0)

    # nodal duality of the C1 trace element
    from .hct import eval_hct

    err = 0.0
    for j in range(9):
        dofs = np.zeros(9)
        dofs[j] = 1.0
        for v in range(3):
            val, grad, _ = eval_hct(element, coords[v:v + 1], dofs)
            actual = np.array([val[0], grad[0, 0], grad[0, 1]])
            expect = np.zeros(3)
            if j // 3 == v:
                expect[j % 3] = 1.0
            err = max(err, float(np.abs(actual - expect).max()))
    ok &= _check(lines, "C1 trace element nodal duality", err, 1e-8)
    return ok


def _cmd_verify(args):
    lines = []
    ok = True
    for t in (0.0, 1e-2, 1e-4):
        report = verify_manufactured(t)
        for key in ("p1", "p2", "p3"):
            ok &= _check(lines, f"residual {key}, t = {t:g}", report[key], 1e-6)
        ok &= _check(lines, f"boundary deflection, t = {t:g}",
                     report["bc_u"], 1e-14)
        ok &= _check(lines, f"boundary normal moment, t = {t:g}",
                     report["bc_Mn"], 1e-14)
        ok &= _check(lines, f"moment divergence consistency, t = {t:g}",
                     report["div_M_consistency"], 1e-6)
    ok &= _property_suite(lines)
    print("\n".join(lines))
    print(f"verify: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_limit(args):
    out = kirchhoff_limit_check(level=args.level, t_sequence=tuple(args.t_list))
    print(f"level {out['level']} mesh, distance to the t = 0 solution")
    print(f"{'t':>10s} {'|u(t)-u(0)|':>14s} {'|M(t)-M(0)|':>14s}")
    for t, du, dM in out["rows"]:
        print(f"{t:10.3e} {du:14.6e} {dM:14.6e}")
    print(f"deflection differences monotone: {out['monotone_u']}")
    print(f"moment differences monotone:     {out['monotone_M']}")
    print(f"closed-form identity relative error: {out['identity_rel_err']:.3e}")
    ok = (out["monotone_u"] and out["monotone_M"]
          and out["identity_rel_err"] <= 1e-12)
    print(f"limit: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="plate-dpg",
        description="Locking-free plate bending solver with built-in checks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    study = sub.add_parser("study", help="manufactured-solution convergence study")
    study.add_argument("--t-list", type=_parse_t_list,
                       default=[1e-2, 1e-4, 1e-6, 1e-8],
                       help="comma-separated plate thicknesses (0 allowed)")
    study.add_argument("--levels", type=int, default=5,
                       help="number of refinement levels, starting at 0")
    study.add_argument("--bc", choices=("simply-supported", "clamped"),
                       default="simply-supported")
    study.add_argument("--solver", choices=("direct", "cg"), default="direct")
    study.add_argument("--out", default="-",
                       help="output CSV path, '-' for stdout")
    study.add_argument("--dump-mesh", default=None, metavar="PATH",
                       help="also write the finest mesh as plain text")
    study.add_argument("--stats", default=None, metavar="PATH",
                       help="also write each solve's stats as one JSON line")
    study.add_argument("--quiet", action="store_true",
                       help="suppress per-solve progress lines")
    study.set_defaults(func=_cmd_study)

    verify = sub.add_parser(
        "verify", help="check the closed-form solution and core structures")
    verify.set_defaults(func=_cmd_verify)

    limit = sub.add_parser(
        "limit", help="thin-plate limit study on a fixed mesh")
    limit.add_argument("--level", type=int, default=3)
    limit.add_argument("--t-list", type=_parse_t_list,
                       default=[1e-1, 1e-2, 1e-3])
    limit.set_defaults(func=_cmd_limit)
    return parser


def main(argv=None):
    """Run one subcommand; a ValueError or SolveError ends it in one line, exit status 2 or 1."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as err:
        return _reject(args, str(err))
    except SolveError as err:
        return _reject(args, str(err), status=1)


if __name__ == "__main__":
    sys.exit(main())
