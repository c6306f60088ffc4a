"""The worklist constraint solver (Section 3.4 of the paper).

Every constrained variable starts at the top of the lattice P(V) (the set of
all program variables — represented lazily by the ``TOP`` marker so that we
never materialise the full set).  Constraints are then re-evaluated until a
fixed point; by Lemma 3.6 of the paper the sets only shrink, so termination
is guaranteed by the finiteness of the lattice.

Two scheduling strategies reach that fixed point (the solution is the same —
the descending chaotic iteration of a monotone system converges to one fixed
point regardless of evaluation order, which the differential tests assert):

* ``sparse`` (the default) — the worklist is keyed by **variable**: after a
  seed pass that evaluates every constraint once, only the dependents of a
  variable whose LT set actually shrank are re-evaluated.  Multiple changes
  to the same variable coalesce into one pending entry, so a constraint is
  revisited once per batch of source changes rather than once per change.
* ``constraint`` — the reference scheme: the worklist holds whole
  constraints and a change re-pushes every dependent constraint
  individually.  Select it with ``ConstraintSolver(constraints,
  strategy="constraint")``; it exists for the differential tests.

The solver records the statistics the paper reports in Section 4.2: number
of constraints, number of constraint (re-)evaluations, and the
visits-per-constraint ratio (the paper measures about 2.1 visits per
constraint over SPEC plus the LLVM test suite, which is the observation
backing the "linear in practice" claim).  The sparse strategy additionally
records variable pops, coalesced pushes and the resulting skip ratio, which
quantify the work the dependents-only scheme avoids.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence

from repro.core.lessthan.constraints import Constraint, LTState, TOP
from repro.ir.values import Value
from repro.obs import TRACER
from repro.util.worklist import SolverInfo, Worklist

#: the scheduling strategies :class:`ConstraintSolver` accepts.
LT_STRATEGIES = ("sparse", "constraint")


class SolverStatistics:
    """Counters describing one constraint-solving run.

    ``worklist_pops`` counts constraint evaluations in both strategies (the
    paper's "visits per constraint" metric); ``variable_pops`` and
    ``coalesced_pushes`` are only non-zero under the sparse strategy.
    """

    def __init__(self) -> None:
        self.constraint_count = 0
        self.variable_count = 0
        self.worklist_pops = 0
        self.variable_pops = 0
        self.coalesced_pushes = 0
        self.solve_time_seconds = 0.0

    def solver_info(self) -> SolverInfo:
        """These counters as a mergeable cross-solver :class:`SolverInfo`.

        Constraint evaluations map onto ``evaluations`` (there is no widening
        on the finite LT lattice); variable pops map onto ``pops``.
        """
        return SolverInfo(evaluations=self.worklist_pops,
                          pops=self.variable_pops)

    @property
    def pops_per_constraint(self) -> float:
        if self.constraint_count == 0:
            return 0.0
        return self.worklist_pops / self.constraint_count

    @property
    def skip_ratio(self) -> float:
        """Fraction of scheduling requests absorbed by an already-pending
        variable — re-evaluations the constraint-keyed scheme would have run."""
        attempted = self.coalesced_pushes + self.variable_pops
        if attempted == 0:
            return 0.0
        return self.coalesced_pushes / attempted

    def as_dict(self) -> Dict[str, float]:
        return {
            "constraints": self.constraint_count,
            "variables": self.variable_count,
            "worklist_pops": self.worklist_pops,
            "pops_per_constraint": self.pops_per_constraint,
            "variable_pops": self.variable_pops,
            "coalesced_pushes": self.coalesced_pushes,
            "skip_ratio": self.skip_ratio,
            "solve_time_seconds": self.solve_time_seconds,
        }

    def __repr__(self) -> str:
        return "<SolverStatistics constraints={} pops={} ({:.2f}/constraint)>".format(
            self.constraint_count, self.worklist_pops, self.pops_per_constraint)


class ConstraintSolver:
    """Solves a system of less-than constraints to a fixed point."""

    def __init__(self, constraints: Sequence[Constraint],
                 strategy: str = "sparse") -> None:
        if strategy not in LT_STRATEGIES:
            raise ValueError("less-than strategy {!r} is not one of {}".format(
                strategy, "/".join(LT_STRATEGIES)))
        self.constraints: List[Constraint] = list(constraints)
        self.strategy = strategy
        self.statistics = SolverStatistics()
        # Dependency map: which constraints must be re-evaluated when the LT
        # set of a given variable changes.
        self._dependents: Dict[Value, List[Constraint]] = {}
        for constraint in self.constraints:
            for source in constraint.sources():
                self._dependents.setdefault(source, []).append(constraint)

    def solve(self) -> Dict[Value, FrozenSet[Value]]:
        """Run the fixed-point iteration and return the final LT sets."""
        state: LTState = {}
        with TRACER.timer("lt.solve", strategy=self.strategy,
                          constraints=len(self.constraints)) as timer:
            for constraint in self.constraints:
                state[constraint.target] = TOP
            if self.strategy == "sparse":
                self._solve_sparse(state)
            else:
                self._solve_constraint_keyed(state)
        self.statistics.constraint_count = len(self.constraints)
        self.statistics.variable_count = len(state)
        self.statistics.solve_time_seconds = timer.seconds
        # Any variable still at TOP belongs to a degenerate cycle never fed by
        # a concrete definition (only possible in unreachable code); report it
        # as the empty set so that no unsound ordering is ever claimed.
        result: Dict[Value, FrozenSet[Value]] = {}
        for value, lt_set in state.items():
            result[value] = frozenset() if lt_set is TOP else lt_set  # type: ignore[assignment]
        return result

    def _solve_sparse(self, state: LTState) -> None:
        """Variable-keyed worklist: re-evaluate only affected dependents.

        A constraint must be revisited iff one of its sources changed *after*
        the constraint's last evaluation, so the solver keeps a global step
        counter, stamps every evaluation and every state change, and skips
        dependents whose last evaluation already saw the change.  Changes to
        the same variable coalesce into one pending entry (the shared
        :class:`~repro.util.worklist.Worklist` counts them), and variables
        pop in FIFO order.
        """
        worklist: Worklist[Value] = Worklist()
        evaluations = 0
        skipped = 0
        step = 0
        last_evaluated: Dict[int, int] = {}
        last_changed: Dict[Value, int] = {}

        def apply(constraint: Constraint) -> None:
            nonlocal evaluations, step
            step += 1
            evaluations += 1
            last_evaluated[id(constraint)] = step
            evaluated = constraint.evaluate(state)
            current = state.get(constraint.target, TOP)
            updated = self._meet(current, evaluated)
            if updated != current:
                state[constraint.target] = updated
                last_changed[constraint.target] = step
                worklist.push(constraint.target)

        # Seed pass: every constraint is visited exactly once; only variables
        # whose sets shrank enter the worklist.
        for constraint in self.constraints:
            apply(constraint)
        while worklist:
            variable = worklist.pop()
            changed_at = last_changed.get(variable, 0)
            for dependent in self._dependents.get(variable, []):
                if last_evaluated.get(id(dependent), 0) >= changed_at:
                    # Evaluated after the change it is being notified of —
                    # re-running the transfer function would be a no-op.
                    skipped += 1
                    continue
                apply(dependent)
        self.statistics.worklist_pops = evaluations
        self.statistics.variable_pops = worklist.pops
        self.statistics.coalesced_pushes = worklist.coalesced + skipped

    def _solve_constraint_keyed(self, state: LTState) -> None:
        """Reference scheme: the worklist holds whole constraints."""
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

    @staticmethod
    def _meet(current: object, evaluated: object) -> object:
        """Greatest lower bound of the current and the freshly evaluated set.

        Taking the meet (instead of overwriting) guarantees the monotonically
        decreasing behaviour that the termination proof of the paper relies
        on, independently of the evaluation order of the worklist.
        """
        if current is TOP:
            return evaluated
        if evaluated is TOP:
            return current
        return current & evaluated  # type: ignore[operator]
