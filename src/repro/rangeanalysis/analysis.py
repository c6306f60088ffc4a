"""The range-analysis driver.

For every SSA value of integer type the analysis computes an
:class:`~repro.rangeanalysis.interval.Interval` that over-approximates the
values the variable may hold at run time.  The algorithm follows the
three-phase structure of Rodrigues et al.'s implementation (the one the
paper's artifact uses):

1. build the data-dependence graph of the function and split it into
   strongly connected components;
2. solve the components in topological order — acyclic components are
   evaluated directly, cyclic components are iterated with *widening* until
   stable;
3. run a *narrowing* pass over cyclic components to recover precision lost
   to widening (in particular bounds coming from loop exit conditions).

When the function is in e-SSA form (after
:func:`repro.essa.transform.convert_to_essa`), σ-copies carry the branch
condition that dominates them; the analysis uses those conditions to refine
ranges, which is how ``for (i = 0; i < N; i++)`` yields ``i ∈ [0, N-1]`` on
the true branch.  The conversion solves the function's one analysis itself
(see :mod:`repro.essa.transform`).

A cyclic component is solved by a sparse def-use worklist seeded from the
:class:`~repro.rangeanalysis.graph.DependencyGraph`.  Only users of values
whose interval actually changed are re-evaluated; per-value widening-point
tracking records where widening fired (the back-edge φ/σ nodes in
practice).  The worklist is ordered by ``(sweep, member index)`` so it
replays full Gauss-Seidel sweeps over the component exactly, skipping only
evaluations that are provably no-ops — the resulting intervals are
**bit-identical** to those of the dense sweeps, which
:class:`repro.verify.reference.DenseRangeAnalysis` keeps as the independent
reference for differential tests and ``benchmarks/bench_solver_hotpath.py``.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.ir.function import Function
from repro.ir.instructions import (
    BinaryOp,
    Copy,
    GetElementPtr,
    ICmp,
    Load,
    Phi,
)
from repro.ir.values import Argument, ConstantInt, Undef, Value
from repro.obs import TRACER
from repro.rangeanalysis.graph import DependencyGraph, SCCComponent
from repro.rangeanalysis.interval import Interval
from repro.util.worklist import SolverInfo, SweepWorklist


class RangeStatistics:
    """Counters describing one range-analysis solve.

    ``evaluations`` counts transfer-function applications — the quantity the
    sparse solver exists to reduce, and what
    ``benchmarks/bench_solver_hotpath.py`` compares across solvers.
    ``pops``/``coalesced_pushes`` account the sparse solver's worklist
    traffic.
    """

    def __init__(self) -> None:
        self.evaluations = 0
        self.components = 0
        self.cyclic_components = 0
        self.widenings = 0
        self.narrowings = 0
        self.widening_points = 0
        self.pops = 0
        self.coalesced_pushes = 0
        #: always 0: every solve is cold.  Kept because perfbench's
        #: ``range.reused_ratio`` metric still reads it.
        self.reused_components = 0
        #: wall time of the solve, measured by an always-on obs timer.  Kept
        #: out of ``as_dict`` so counter aggregation and byte-parity
        #: comparisons never see wall-clock jitter.
        self.solve_time_seconds = 0.0

    def solver_info(self) -> SolverInfo:
        """These counters as a mergeable cross-solver :class:`SolverInfo`."""
        return SolverInfo(
            evaluations=self.evaluations,
            widenings=self.widenings,
            narrowings=self.narrowings,
            sccs=self.components,
            cyclic_sccs=self.cyclic_components,
            pops=self.pops)

    def as_dict(self) -> Dict[str, int]:
        return {
            "evaluations": self.evaluations,
            "components": self.components,
            "cyclic_components": self.cyclic_components,
            "widenings": self.widenings,
            "narrowings": self.narrowings,
            "widening_points": self.widening_points,
            "pops": self.pops,
            "coalesced_pushes": self.coalesced_pushes,
        }

    def __repr__(self) -> str:
        return "<RangeStatistics evaluations={} widenings={} narrowings={}>".format(
            self.evaluations, self.widenings, self.narrowings)


class RangeAnalysis:
    """Computes and stores value ranges for a single function."""

    #: number of chaotic iterations inside a cyclic component before widening
    #: kicks in; small values keep the analysis fast, larger values keep more
    #: precision for short chains.
    ITERATIONS_BEFORE_WIDENING = 3
    #: bound on narrowing iterations (narrowing always terminates, this is a
    #: belt-and-braces fuel limit).
    MAX_NARROWING_ITERATIONS = 16

    def __init__(self, function: Function,
                 argument_ranges: Optional[Dict[Argument, Interval]] = None
                 ) -> None:
        self.function = function
        self.argument_ranges = argument_ranges or {}
        self.ranges: Dict[Value, Interval] = {}
        self.statistics = RangeStatistics()
        #: values whose bounds widening actually changed — the per-value
        #: widening points (back-edge φ/σ nodes and the chains they feed).
        self.widening_points: Set[Value] = set()
        with TRACER.timer("range.solve", fn=function.name) as timer:
            self._run()
        self.statistics.solve_time_seconds = timer.seconds

    # -- public API ---------------------------------------------------------------
    def range_of(self, value: Value) -> Interval:
        """The interval of ``value`` (top for untracked values, exact for constants)."""
        if isinstance(value, ConstantInt):
            return Interval.constant(value.value)
        if isinstance(value, Undef):
            return Interval.top()
        return self.ranges.get(value, Interval.top())

    def is_strictly_positive(self, value: Value) -> bool:
        return self.range_of(value).is_strictly_positive()

    def is_strictly_negative(self, value: Value) -> bool:
        return self.range_of(value).is_strictly_negative()

    # -- solving ---------------------------------------------------------------------
    def _run(self) -> None:
        if self.function.is_declaration():
            return
        schedule = DependencyGraph(self.function).condense()
        for node in schedule.graph.nodes:
            self.ranges[node] = Interval.bottom()
        for component in schedule:
            self.statistics.components += 1
            if component.cyclic:
                self.statistics.cyclic_components += 1
                self._solve_cyclic(component)
            else:
                # Topological order makes a single evaluation final here; no
                # widening, no worklist.
                self._solve_acyclic(component.members[0])
        self.statistics.widening_points = len(self.widening_points)

    def _solve_acyclic(self, value: Value) -> None:
        self.ranges[value] = self._evaluate(value)

    def _harvest(self, worklist: SweepWorklist) -> None:
        """Fold a drained worklist's traffic counters into the statistics."""
        self.statistics.pops += worklist.pops
        self.statistics.coalesced_pushes += worklist.coalesced

    def _solve_cyclic(self, component: SCCComponent) -> None:
        """Change-driven solver: re-evaluate only users of changed values.

        The :class:`~repro.util.worklist.SweepWorklist` holds member indices
        keyed ``(sweep, index)``, which replays dense Gauss–Seidel sweeps
        over the component: when the value at index ``i`` changes during
        sweep ``s``, a user at index ``j > i`` is re-evaluated later in the
        same sweep (it would have seen the update in the dense pass too) and
        a user at ``j <= i`` in sweep ``s + 1``.  Values whose operands did
        not change are skipped outright — their re-evaluation would
        reproduce the stored interval, so the dense sweep's visit is a no-op
        there.  The per-phase sweep limits are the class constants above,
        shared with the dense reference, which makes the two solvers'
        results bit-identical.
        """
        members = component.members
        users = component.users
        ranges = self.ranges
        statistics = self.statistics

        worklist = SweepWorklist(len(members))
        # Phase 1a: bounded chaotic iteration.
        while True:
            sweep = worklist.next_sweep()
            if sweep is None or sweep >= self.ITERATIONS_BEFORE_WIDENING:
                break
            sweep, index = worklist.pop()
            value = members[index]
            new = self._evaluate(value)
            if new != ranges[value]:
                ranges[value] = new
                worklist.schedule(sweep, index, users[index])
        if not worklist:
            self._harvest(worklist)
            return
        # Phase 1b: widening until the change frontier drains.
        while worklist:
            sweep, index = worklist.pop()
            value = members[index]
            widened = ranges[value].widen(self._evaluate(value))
            if widened != ranges[value]:
                ranges[value] = widened
                if value not in self.widening_points:
                    self.widening_points.add(value)
                statistics.widenings += 1
                worklist.schedule(sweep, index, users[index])
        self._harvest(worklist)
        # Phase 2: narrowing.  Every member re-enters once — the transfer
        # changes from widening to narrowing, so "operands unchanged" no
        # longer implies a no-op — then only users of refined values follow.
        worklist = SweepWorklist(len(members))
        while True:
            sweep = worklist.next_sweep()
            if sweep is None or sweep >= self.MAX_NARROWING_ITERATIONS:
                break
            sweep, index = worklist.pop()
            value = members[index]
            narrowed = ranges[value].narrow(self._evaluate(value))
            if narrowed != ranges[value]:
                ranges[value] = narrowed
                statistics.narrowings += 1
                worklist.schedule(sweep, index, users[index])
        self._harvest(worklist)

    # -- transfer functions -----------------------------------------------------------
    def _operand_range(self, value: Value) -> Interval:
        if isinstance(value, ConstantInt):
            return Interval.constant(value.value)
        if isinstance(value, Undef):
            return Interval.top()
        return self.ranges.get(value, Interval.top())

    def _evaluate(self, value: Value) -> Interval:
        self.statistics.evaluations += 1
        if isinstance(value, Argument):
            return self.argument_ranges.get(value, Interval.top())
        if isinstance(value, ConstantInt):
            return Interval.constant(value.value)
        if isinstance(value, BinaryOp):
            return self._evaluate_binary(value)
        if isinstance(value, Phi):
            result = Interval.bottom()
            for incoming, _block in value.incoming():
                result = result.join(self._operand_range(incoming))
            return result
        if isinstance(value, Copy):
            source_range = self._operand_range(value.source)
            return self._refine_sigma(value, source_range)
        if isinstance(value, (Load, GetElementPtr)):
            # Loads produce unknown integers; geps are pointers (ranges are
            # not meaningful but keeping top keeps the graph uniform).
            return Interval.top()
        return Interval.top()

    def _evaluate_binary(self, inst: BinaryOp) -> Interval:
        lhs = self._operand_range(inst.lhs)
        rhs = self._operand_range(inst.rhs)
        if inst.op == "add":
            return lhs.add(rhs)
        if inst.op == "sub":
            return lhs.sub(rhs)
        if inst.op == "mul":
            return lhs.mul(rhs)
        if inst.op == "div":
            return lhs.div(rhs)
        if inst.op == "rem":
            return lhs.rem(rhs)
        return Interval.top()

    def _refine_sigma(self, copy: Copy, source_range: Interval) -> Interval:
        """Refine the range of a σ-copy with the branch condition it encodes.

        The e-SSA transformation annotates σ-copies with the comparison that
        guards them (``sigma_condition``), which operand of the comparison the
        copy renames (``sigma_operand_side``: "lhs" or "rhs") and whether the
        copy lives on the true or the false branch (``sigma_on_true_branch``).
        """
        condition = getattr(copy, "sigma_condition", None)
        if not isinstance(condition, ICmp):
            return source_range
        side = getattr(copy, "sigma_operand_side", None)
        on_true = getattr(copy, "sigma_on_true_branch", True)
        lhs_range = self._operand_range(condition.lhs)
        rhs_range = self._operand_range(condition.rhs)
        predicate = condition.predicate
        if not on_true:
            predicate = ICmp.NEGATED[predicate]
        if side == "lhs":
            mine, other = source_range, rhs_range
        elif side == "rhs":
            mine, other = source_range, lhs_range
            predicate = ICmp.SWAPPED[predicate]
        else:
            return source_range
        if predicate == "slt":
            return mine.refine_less_than(other)
        if predicate == "sle":
            return mine.refine_less_equal(other)
        if predicate == "sgt":
            return mine.refine_greater_than(other)
        if predicate == "sge":
            return mine.refine_greater_equal(other)
        if predicate == "eq":
            return mine.refine_equal(other)
        return mine
