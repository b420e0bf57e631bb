"""Locking-free plate bending solver.

Solves the Reissner-Mindlin plate model on the unit square with a
minimum-residual (DPG) method whose field variables live in L2 and whose
skeleton traces are carried by reduced Hsieh-Clough-Tocher C1 elements.
The formulation stays well posed uniformly in the plate thickness t,
including the Kirchhoff-Love limit t = 0.
"""

from .dpg import ProblemConfig
from .driver import (
    Solution,
    StudyRecord,
    assemble_and_solve,
    kirchhoff_limit_check,
    run_study,
    write_csv,
)
from .manufactured import ExactSolution, verify_manufactured
from .mesh import Mesh, mesh_at_level, refine_uniform, unit_square_initial

__version__ = "0.1.0"

__all__ = [
    "ExactSolution",
    "Mesh",
    "ProblemConfig",
    "Solution",
    "StudyRecord",
    "assemble_and_solve",
    "kirchhoff_limit_check",
    "mesh_at_level",
    "refine_uniform",
    "run_study",
    "unit_square_initial",
    "verify_manufactured",
    "write_csv",
]
