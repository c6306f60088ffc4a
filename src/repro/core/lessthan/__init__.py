"""The less-than (strict inequality) dataflow analysis."""

from repro.core.lessthan.constraints import (
    Constraint,
    InitConstraint,
    IntersectionConstraint,
    UnionConstraint,
)
from repro.core.lessthan.generation import ConstraintGenerator
from repro.core.lessthan.solver import ConstraintSolver, SolverStatistics
from repro.core.lessthan.analysis import LessThanAnalysis
from repro.core.lessthan.inequality_graph import InequalityGraph

__all__ = [
    "Constraint",
    "InitConstraint",
    "IntersectionConstraint",
    "UnionConstraint",
    "ConstraintGenerator",
    "ConstraintSolver",
    "SolverStatistics",
    "LessThanAnalysis",
    "InequalityGraph",
]
