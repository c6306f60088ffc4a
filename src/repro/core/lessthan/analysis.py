"""The less-than analysis driver.

Ties the pipeline together, matching the pass ordering of the original LLVM
artifact (``RangeAnalysis`` → ``vSSA`` → ``sraa``):

1. compute value ranges (used to classify additions vs. subtractions);
2. convert the function to e-SSA form (live-range splitting);
3. recompute ranges on the e-SSA form (σ-copies make them more precise);
4. generate the constraints of Figure 7;
5. solve them with the worklist solver.

The analysis can run on a single function or on a whole module; the module
variant adds the interprocedural pseudo-φ constraints that bind formal
parameters to the actual arguments of their call sites (Section 4).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Union

from repro.core.lessthan.constraints import Constraint
from repro.core.lessthan.generation import ConstraintGenerator
from repro.core.lessthan.inequality_graph import InequalityGraph
from repro.core.lessthan.solver import ConstraintSolver, SolverStatistics
from repro.essa.transform import convert_to_essa
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.values import Value
from repro.obs import TRACER
from repro.rangeanalysis.analysis import RangeAnalysis


class LessThanAnalysis:
    """Computes the strict less-than relation for a function or module.

    Parameters
    ----------
    subject:
        A :class:`Function` or a :class:`Module`.
    build_essa:
        When true (the default), the subject is converted to e-SSA form in
        place before constraints are generated.  Pass False when the subject
        is already in e-SSA form (e.g. when chaining analyses).
    interprocedural:
        Only meaningful for modules: generate pseudo-φ constraints binding
        formal parameters to actual arguments.
    cache:
        An optional :class:`repro.passes.analysis_cache.FunctionAnalysisCache`.
        When provided, the e-SSA conversion and the per-function range
        analyses are fetched from (and stored into) the cache, so several
        analyses over the same functions share one computation.
    """

    def __init__(self, subject: Union[Function, Module], build_essa: bool = True,
                 interprocedural: bool = True, cache: Optional[object] = None) -> None:
        self.subject = subject
        self.cache = cache
        self.functions: List[Function] = (
            [subject] if isinstance(subject, Function)
            else [f for f in subject.functions if not f.is_declaration()]
        )
        self.ranges: Dict[Function, RangeAnalysis] = {}
        self.constraints: List[Constraint] = []
        self.lt_sets: Dict[Value, FrozenSet[Value]] = {}
        self.statistics = SolverStatistics()
        self._run(build_essa, interprocedural)

    # -- pipeline ------------------------------------------------------------------
    def _run(self, build_essa: bool, interprocedural: bool) -> None:
        if build_essa:
            for function in self.functions:
                if self.cache is not None:
                    self.cache.ensure_essa(function)
                else:
                    convert_to_essa(function)
        # Ranges on the (possibly transformed) functions, reused by the
        # constraint generator.
        for function in self.functions:
            if self.cache is not None:
                self.ranges[function] = self.cache.ranges(function)
            else:
                self.ranges[function] = RangeAnalysis(function)
        generator = ConstraintGenerator(self.ranges)
        with TRACER.span("lt.generate",
                         functions=len(self.functions)) as span:
            if isinstance(self.subject, Module):
                self.constraints = generator.generate_for_module(
                    self.subject, interprocedural=interprocedural)
            else:
                self.constraints = generator.generate_for_function(self.subject)
            span.annotate(constraints=len(self.constraints))
        solver = ConstraintSolver(self.constraints)
        self.lt_sets = solver.solve()
        self.statistics = solver.statistics

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

    def inequality_graph(self) -> InequalityGraph:
        return InequalityGraph(self.lt_sets)

    def constraint_count(self) -> int:
        return len(self.constraints)

    def range_of(self, function: Function) -> RangeAnalysis:
        return self.ranges[function]
