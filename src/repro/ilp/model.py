"""MILP model builder.

A thin, explicit representation: named variables with bounds / integrality /
objective coefficients, and linear constraints stored sparsely as
coefficient dicts.  The solver facade hands HiGHS the arrays produced by
:meth:`MILPModel.to_arrays`.
Minimization is assumed throughout, matching the paper's objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

SENSES = ("<=", ">=", "==")


@dataclass
class Variable:
    """A decision variable."""

    name: str
    lb: float = 0.0
    ub: float = float("inf")
    integer: bool = False
    obj: float = 0.0
    index: int = -1

    def __post_init__(self) -> None:
        if self.lb > self.ub:
            raise ValueError(f"variable {self.name!r}: lb > ub")


@dataclass
class Constraint:
    """``sum(coeffs[v] * v) sense rhs``."""

    coeffs: dict[str, float]
    sense: str
    rhs: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.sense not in SENSES:
            raise ValueError(f"bad sense {self.sense!r}; want one of {SENSES}")
        if not self.coeffs:
            raise ValueError(f"constraint {self.name!r} has no coefficients")


@dataclass
class ModelArrays:
    """Dense/sparse arrays for the solver (minimization)."""

    c: np.ndarray
    A: sparse.csr_matrix  # all constraints, row-aligned with senses/rhs
    senses: list[str]
    rhs: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray
    names: list[str]
    obj_constant: float


class MILPModel:
    """A mixed-integer linear program under construction."""

    def __init__(self, name: str = "milp") -> None:
        self.name = name
        self.variables: dict[str, Variable] = {}
        self.constraints: list[Constraint] = []
        self.obj_constant = 0.0

    # ------------------------------------------------------------- building

    def add_var(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = float("inf"),
        integer: bool = False,
        obj: float = 0.0,
    ) -> str:
        if name in self.variables:
            raise ValueError(f"duplicate variable {name!r}")
        var = Variable(name, lb, ub, integer, obj, index=len(self.variables))
        self.variables[name] = var
        return name

    def add_binary(self, name: str, obj: float = 0.0) -> str:
        return self.add_var(name, lb=0.0, ub=1.0, integer=True, obj=obj)

    def add_constraint(
        self,
        coeffs: dict[str, float],
        sense: str,
        rhs: float,
        name: str = "",
    ) -> None:
        unknown = [v for v in coeffs if v not in self.variables]
        if unknown:
            raise KeyError(f"constraint references unknown variables {unknown}")
        self.constraints.append(Constraint(dict(coeffs), sense, float(rhs), name))

    def add_objective_constant(self, value: float) -> None:
        self.obj_constant += float(value)

    # ------------------------------------------------------------ statistics

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def num_integer_variables(self) -> int:
        return sum(1 for v in self.variables.values() if v.integer)

    # ------------------------------------------------------------ conversion

    def to_arrays(self) -> ModelArrays:
        names = list(self.variables)
        n = len(names)
        c = np.array([self.variables[v].obj for v in names], dtype=np.float64)
        lb = np.array([self.variables[v].lb for v in names], dtype=np.float64)
        ub = np.array([self.variables[v].ub for v in names], dtype=np.float64)
        integrality = np.array(
            [1 if self.variables[v].integer else 0 for v in names], dtype=np.int8
        )
        rows: list[int] = []
        cols: list[int] = []
        data: list[float] = []
        senses: list[str] = []
        rhs: list[float] = []
        index = {v: i for i, v in enumerate(names)}
        for i, con in enumerate(self.constraints):
            for var, coef in con.coeffs.items():
                rows.append(i)
                cols.append(index[var])
                data.append(float(coef))
            senses.append(con.sense)
            rhs.append(con.rhs)
        A = sparse.csr_matrix(
            (data, (rows, cols)), shape=(len(self.constraints), n), dtype=np.float64
        )
        return ModelArrays(
            c=c,
            A=A,
            senses=senses,
            rhs=np.array(rhs, dtype=np.float64),
            lb=lb,
            ub=ub,
            integrality=integrality,
            names=names,
            obj_constant=self.obj_constant,
        )

    def evaluate(self, values: dict[str, float]) -> float:
        """Objective value (including constant) at a point."""
        total = self.obj_constant
        for name, var in self.variables.items():
            total += var.obj * values.get(name, 0.0)
        return total

    def is_feasible(self, values: dict[str, float], tol: float = 1e-6) -> bool:
        """Check bounds, integrality and constraints at a point."""
        for name, var in self.variables.items():
            x = values.get(name, 0.0)
            if x < var.lb - tol or x > var.ub + tol:
                return False
            if var.integer and abs(x - round(x)) > tol:
                return False
        for con in self.constraints:
            lhs = sum(coef * values.get(v, 0.0) for v, coef in con.coeffs.items())
            if con.sense == "<=" and lhs > con.rhs + tol:
                return False
            if con.sense == ">=" and lhs < con.rhs - tol:
                return False
            if con.sense == "==" and abs(lhs - con.rhs) > tol:
                return False
        return True

    def __repr__(self) -> str:
        return (
            f"MILPModel({self.name!r}, vars={self.num_variables} "
            f"({self.num_integer_variables} int), cons={self.num_constraints})"
        )
