"""Independent reference solvers for differential tests.

The production pipeline has one solver per fixpoint: the sparse FIFO range
solver in :class:`~repro.rangeanalysis.analysis.RangeAnalysis` and the
variable-keyed LT solver in
:class:`~repro.core.lessthan.solver.ConstraintSolver`.  The classes here
replace only the scheduling of those fixpoints with the plain textbook
scheme, keeping every transfer function, so the tests and
``benchmarks/bench_solver_hotpath.py`` can assert that the fast schedules
reach bit-identical results with fewer evaluations:

* :class:`DenseRangeAnalysis` re-evaluates every member of a cyclic
  component on every iteration, widening and narrowing sweep;
* :class:`ConstraintKeyedSolver` keeps whole constraints on the worklist and
  re-pushes every dependent constraint on each change.

No production module imports this one.
"""

from __future__ import annotations

from repro.core.lessthan.constraints import Constraint, LTState, TOP
from repro.core.lessthan.solver import ConstraintSolver
from repro.rangeanalysis.analysis import RangeAnalysis
from repro.rangeanalysis.graph import SCCComponent
from repro.util.worklist import Worklist

__all__ = ["ConstraintKeyedSolver", "DenseRangeAnalysis"]


class DenseRangeAnalysis(RangeAnalysis):
    """Range analysis whose cyclic components are solved by full sweeps."""

    def _solve_cyclic(self, component: SCCComponent) -> None:
        """Full sweeps over the component until stable."""
        members = list(component.members)
        # Phase 1: plain iteration, then widening until stabilisation.
        for _ in range(self.ITERATIONS_BEFORE_WIDENING):
            changed = False
            for value in members:
                new = self._evaluate(value)
                if new != self.ranges[value]:
                    self.ranges[value] = new
                    changed = True
            if not changed:
                return
        stable = False
        while not stable:
            stable = True
            for value in members:
                new = self._evaluate(value)
                widened = self.ranges[value].widen(new)
                if widened != self.ranges[value]:
                    self.ranges[value] = widened
                    self.widening_points.add(value)
                    self.statistics.widenings += 1
                    stable = False
        # Phase 2: narrowing.
        for _ in range(self.MAX_NARROWING_ITERATIONS):
            changed = False
            for value in members:
                new = self._evaluate(value)
                narrowed = self.ranges[value].narrow(new)
                if narrowed != self.ranges[value]:
                    self.ranges[value] = narrowed
                    self.statistics.narrowings += 1
                    changed = True
            if not changed:
                break


class ConstraintKeyedSolver(ConstraintSolver):
    """LT solver whose worklist holds whole constraints."""

    def _fixpoint(self, state: LTState) -> None:
        worklist: Worklist[Constraint] = Worklist(self.constraints)
        while worklist:
            constraint = worklist.pop()
            evaluated = constraint.evaluate(state)
            current = state.get(constraint.target, TOP)
            updated = self._meet(current, evaluated)
            if updated != current:
                state[constraint.target] = updated
                for dependent in self._dependents.get(constraint.target, []):
                    worklist.push(dependent)
        self.statistics.worklist_pops = worklist.pops
