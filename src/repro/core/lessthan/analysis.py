"""The less-than analysis driver.

Ties the pipeline together, matching the pass ordering of the original LLVM
artifact (``RangeAnalysis`` → ``vSSA`` → ``sraa``):

1. convert every defined function to e-SSA form (live-range splitting),
   which solves its one range analysis as it goes (ranges classify
   additions vs. subtractions);
2. generate the constraints of Figure 7 for the whole module, plus the
   interprocedural pseudo-φ constraints that bind formal parameters to the
   actual arguments of their call sites (Section 4); a formal without call
   sites behaves like an unknown input;
3. solve them with the worklist solver.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

from repro.core.lessthan.constraints import Constraint
from repro.core.lessthan.generation import ConstraintGenerator
from repro.core.lessthan.solver import ConstraintSolver, SolverStatistics
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.values import Value
from repro.obs import TRACER
from repro.passes.analysis_cache import FunctionAnalysisCache
from repro.rangeanalysis.analysis import RangeAnalysis


class LessThanAnalysis:
    """Computes the strict less-than relation for a module.

    Parameters
    ----------
    module:
        The :class:`Module` to analyse; its declarations are skipped.
    build_essa:
        When true (the default), every function is converted to e-SSA form
        in place before constraints are generated.  Pass False when the
        module is already in e-SSA form (e.g. when chaining analyses).
    cache:
        The :class:`~repro.passes.analysis_cache.FunctionAnalysisCache` the
        e-SSA conversions and range analyses are fetched from (and stored
        into), so several analyses over the same functions share one
        computation.  A private cache is used when omitted; either way it
        is kept as :attr:`cache`.
    """

    def __init__(self, module: Module, build_essa: bool = True,
                 cache: Optional[FunctionAnalysisCache] = None) -> None:
        self.cache = cache if cache is not None else FunctionAnalysisCache()
        self.functions: List[Function] = [
            f for f in module.functions if not f.is_declaration()]
        self.ranges: Dict[Function, RangeAnalysis] = {}
        for function in self.functions:
            if build_essa:
                self.cache.ensure_essa(function)
            self.ranges[function] = self.cache.ranges(function)
        with TRACER.span("lt.generate",
                         functions=len(self.functions)) as span:
            self.constraints: List[Constraint] = ConstraintGenerator(
                self.ranges).generate_for_module(module)
            span.annotate(constraints=len(self.constraints))
        solver = ConstraintSolver(self.constraints)
        self.lt_sets: Dict[Value, FrozenSet[Value]] = solver.solve()
        self.statistics: SolverStatistics = solver.statistics

    # -- queries ---------------------------------------------------------------------
    def lt(self, value: Value) -> FrozenSet[Value]:
        """``LT(value)``: the set of variables strictly smaller than ``value``."""
        return self.lt_sets.get(value, frozenset())

    def is_less_than(self, smaller: Value, greater: Value) -> bool:
        """True when the analysis proves ``smaller < greater``.

        By Corollary 3.10 this holds at every program point where both
        variables are simultaneously alive.
        """
        return smaller in self.lt_sets.get(greater, frozenset())

    def ordered(self, a: Value, b: Value) -> bool:
        """True when the analysis proves ``a < b`` or ``b < a``."""
        return self.is_less_than(a, b) or self.is_less_than(b, a)

    def constraint_count(self) -> int:
        return len(self.constraints)

    def range_of(self, function: Function) -> RangeAnalysis:
        return self.ranges[function]
