"""MILP substrate: a model builder and the solver facade.

CORADD solves its candidate-selection problem with "a commercial LP solver"
(Section 5.1).  Here a model is built with :mod:`repro.ilp.model` and solved
by HiGHS through ``scipy.optimize.milp`` (:mod:`repro.ilp.solver`), which
adds fix-and-polish warm starts on top.
"""

from repro.ilp.model import MILPModel, Constraint, Variable
from repro.ilp.solver import Solution, solve

__all__ = [
    "MILPModel",
    "Constraint",
    "Variable",
    "Solution",
    "solve",
]
