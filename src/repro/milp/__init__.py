"""A small MILP modeling layer over scipy's HiGHS solver.

Substrate for the paper's optimization problem (Section VI).  The API
is deliberately PuLP-like::

    from repro.milp import MilpModel, VarType

    model = MilpModel("example")
    x = model.add_integer("x", upper=10)
    y = model.add_integer("y", upper=10)
    model.add(2 * x + y <= 14)
    model.maximize(x + 3 * y)
    solution = model.solve()

Constraints are stored as index/coefficient rows
(:mod:`repro.milp.rows`); builders of large models emit them directly
with :meth:`MilpModel.add_row`.
"""

from repro.milp.expr import Constraint, LinExpr, Sense, Var, VarType, lin_sum
from repro.milp.model import MilpModel, ObjectiveSense
from repro.milp.result import Solution, SolveStatus

__all__ = [
    "Constraint",
    "LinExpr",
    "Sense",
    "Var",
    "VarType",
    "lin_sum",
    "MilpModel",
    "ObjectiveSense",
    "Solution",
    "SolveStatus",
]
