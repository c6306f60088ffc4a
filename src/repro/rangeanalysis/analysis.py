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
the true branch.

Two solver implementations compute the fixed point of a cyclic component:

* ``sparse`` (the default) — a def-use worklist seeded from the
  :class:`~repro.rangeanalysis.graph.DependencyGraph`.  Only users of values
  whose interval actually changed are re-evaluated; per-value widening-point
  tracking records where widening fired (the back-edge φ/σ nodes in
  practice).  The worklist is ordered by ``(sweep, member index)`` so it
  replays the dense solver's Gauss-Seidel trajectory exactly, skipping only
  evaluations that are provably no-ops — the resulting intervals are
  **bit-identical** to the dense solver's.
* ``dense`` — the reference implementation: every member of the component is
  re-evaluated on every iteration/widening/narrowing sweep.  Kept for
  differential testing and as the baseline of
  ``benchmarks/bench_solver_hotpath.py``; select it with
  ``RangeAnalysis(function, solver="dense")``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.ir.function import Function
from repro.ir.instructions import (
    BinaryOp,
    Copy,
    GetElementPtr,
    ICmp,
    Load,
    Phi,
)
from repro.ir.printer import format_instruction
from repro.ir.values import Argument, ConstantInt, Undef, Value
from repro.obs import TRACER
from repro.passes.pass_base import AnalysisPass
from repro.rangeanalysis.graph import DependencyGraph, SCCComponent
from repro.rangeanalysis.interval import Interval
from repro.util.worklist import SolverInfo, SweepWorklist

#: the range solvers :class:`RangeAnalysis` accepts.
RANGE_SOLVERS = ("sparse", "dense")


def value_signature(value: Value) -> tuple:
    """A content signature identifying ``value`` across recompilations.

    Two values with equal signatures have identical transfer functions over
    identically *named* inputs: the printed instruction text pins the opcode,
    the result name (unique per function in SSA) and every operand name; the
    parent block name pins the position; and σ-copies additionally pin their
    branch condition — the printed ``copy`` omits it, yet it feeds the
    refinement — including which side the copy renames and which branch it
    lives on.  This is what lets an incremental re-solve match values of a
    freshly compiled function against a previous compile's results.
    """
    if isinstance(value, Argument):
        return ("arg", value.name)
    block = getattr(value, "parent", None)
    block_name = getattr(block, "name", None)
    condition = getattr(value, "sigma_condition", None)
    if isinstance(condition, ICmp):
        condition_block = getattr(condition, "parent", None)
        extra = (format_instruction(condition),
                 getattr(condition_block, "name", None),
                 getattr(value, "sigma_operand_side", None),
                 getattr(value, "sigma_on_true_branch", None))
    else:
        extra = None
    return (block_name, format_instruction(value), extra)


def _transfer_inputs(value: Value) -> List[Value]:
    """The values whose intervals :meth:`RangeAnalysis._evaluate` reads.

    Arguments, loads and geps are state-independent (their transfer is a
    constant of the analysis), so they contribute no inputs.
    """
    if isinstance(value, BinaryOp):
        return [value.lhs, value.rhs]
    if isinstance(value, Phi):
        return [incoming for incoming, _block in value.incoming()]
    if isinstance(value, Copy):
        inputs = [value.source]
        condition = getattr(value, "sigma_condition", None)
        if isinstance(condition, ICmp):
            inputs.append(condition.lhs)
            inputs.append(condition.rhs)
        return inputs
    return []


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
        #: components whose previous-solve intervals were copied instead of
        #: solved (incremental re-solve only; always 0 on a fresh solve).
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
            "reused_components": self.reused_components,
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
                 argument_ranges: Optional[Dict[Argument, Interval]] = None,
                 solver: str = "sparse",
                 previous: Optional["RangeAnalysis"] = None) -> None:
        """``previous`` is a finished analysis of an earlier compile of (an
        edit of) the same function: components whose structure and external
        inputs are unchanged copy its intervals instead of re-solving
        (incremental re-solve, bit-identical to a fresh solve — see
        :meth:`_try_reuse`).  It is only read during the solve, so an
        analysis never keeps its predecessor alive."""
        if solver not in RANGE_SOLVERS:
            raise ValueError("range solver {!r} is not one of {}".format(
                solver, "/".join(RANGE_SOLVERS)))
        self.function = function
        self.argument_ranges = argument_ranges or {}
        self.ranges: Dict[Value, Interval] = {}
        self.solver = solver
        self.statistics = RangeStatistics()
        self._schedule = None
        self._reuse_table: Optional[Dict[tuple, List[tuple]]] = None
        #: values whose bounds widening actually changed — the per-value
        #: widening points (back-edge φ/σ nodes and the chains they feed).
        self.widening_points: Set[Value] = set()
        with TRACER.timer("range.solve", fn=function.name,
                          solver=self.solver) as timer:
            self._run(previous)
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
    def _run(self, previous: Optional["RangeAnalysis"]) -> None:
        if self.function.is_declaration():
            return
        schedule = DependencyGraph(self.function).condense()
        self._schedule = schedule
        reuse = self._previous_reuse_table(previous)
        for node in schedule.graph.nodes:
            self.ranges[node] = Interval.bottom()
        for component in schedule:
            self.statistics.components += 1
            if component.cyclic:
                self.statistics.cyclic_components += 1
            if reuse is not None and self._try_reuse(component, reuse):
                self.statistics.reused_components += 1
                continue
            if not component.cyclic:
                # Topological order makes a single evaluation final here; no
                # widening, no worklist.
                self._solve_acyclic(component.members[0])
                continue
            if self.solver == "dense":
                self._solve_cyclic_dense(component.members)
            else:
                self._solve_cyclic_sparse(component)
        self.statistics.widening_points = len(self.widening_points)

    # -- incremental re-solve --------------------------------------------------------
    def snapshot(self) -> None:
        """Freeze the reuse table now, against later in-place IR mutation.

        The table is otherwise built lazily on first use as a ``previous``
        analysis, reading signatures from the function's *current* printed
        form — correct but lossy once a transformation (e-SSA conversion)
        has rewritten operands, since mutated texts no longer match the
        solved structure.  A caller that mutates the IR right after solving
        snapshots first so the signatures describe what was actually solved.
        Mutation after the solve can never make reuse *unsound* either way:
        any operand rebinding shows up in the printed text, so a stale
        signature fails to match rather than matching wrongly.
        """
        if self._schedule is not None:
            self._component_snapshot()

    def _previous_reuse_table(self, previous: Optional["RangeAnalysis"]
                              ) -> Optional[Dict[tuple, List[tuple]]]:
        """``previous``'s components, keyed for signature matching.

        Reuse is only attempted when neither analysis carries argument
        ranges: an Argument's transfer function reads ``argument_ranges``
        directly, which the signatures do not (and need not, for the cache
        paths that drive incremental re-solves) capture.
        """
        if previous is None or previous._schedule is None:
            return None
        if self.argument_ranges or previous.argument_ranges:
            return None
        return previous._component_snapshot()

    def _component_snapshot(self) -> Dict[tuple, List[tuple]]:
        """This (finished) analysis, as a reuse table for a later one.

        Maps the *ordered* tuple of a component's member signatures to a
        per-member ``(interval, context)`` list, where the context holds, per
        transfer-function input, ``None`` for intra-component inputs and the
        input's final interval otherwise.  The member order is Tarjan's
        canonical order — the order the solvers sweep — so a matching key
        pins the exact solve trajectory, not just the member set.
        """
        if self._reuse_table is None:
            table: Dict[tuple, List[tuple]] = {}
            for component in self._schedule:
                member_set = set(component.members)
                records: List[tuple] = []
                for value in component.members:
                    context = tuple(
                        None if operand in member_set
                        else self.range_of(operand)
                        for operand in _transfer_inputs(value))
                    records.append((self.ranges[value], context))
                key = tuple(value_signature(value)
                            for value in component.members)
                table[key] = records
            self._reuse_table = table
        return self._reuse_table

    def _try_reuse(self, component: SCCComponent,
                   reuse: Dict[tuple, List[tuple]]) -> bool:
        """Copy a component's previous intervals when a fresh solve is
        provably a replay.

        The solve of one component is a deterministic function of (a) the
        ordered member instruction texts and σ-annotations — they fix the
        transfer functions and every intra-component edge — and (b) the
        intervals of all external inputs, final by topological order.  When
        the ordered signature tuple matches a previous component and every
        external input's interval equals what that solve saw (``None``
        markers guarantee the member/non-member split of each input list
        matches too), the fresh trajectory would reproduce the previous
        intervals bound for bound, so they are copied and the component is
        skipped.  Solved-vs-reused composition stays bit-identical to a
        fresh solve by induction over the topological order.
        """
        key = tuple(value_signature(value) for value in component.members)
        records = reuse.get(key)
        if records is None:
            return False
        member_set = set(component.members)
        for value, (_interval, old_context) in zip(component.members, records):
            inputs = _transfer_inputs(value)
            if len(inputs) != len(old_context):
                return False
            for operand, old_input in zip(inputs, old_context):
                if operand in member_set:
                    if old_input is not None:
                        return False
                elif old_input != self.range_of(operand):
                    return False
        for value, (interval, _context) in zip(component.members, records):
            self.ranges[value] = interval
        return True

    def _solve_acyclic(self, value: Value) -> None:
        self.ranges[value] = self._evaluate(value)

    def _solve_cyclic_dense(self, component: List[Value]) -> None:
        """Reference solver: full sweeps over the component until stable."""
        members = list(component)
        # Phase 1: plain iteration, then widening until stabilisation.
        for iteration in range(self.ITERATIONS_BEFORE_WIDENING):
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
                    if value not in self.widening_points:
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

    def _harvest(self, worklist: SweepWorklist) -> None:
        """Fold a drained worklist's traffic counters into the statistics."""
        self.statistics.pops += worklist.pops
        self.statistics.coalesced_pushes += worklist.coalesced

    def _solve_cyclic_sparse(self, component: SCCComponent) -> None:
        """Change-driven solver: re-evaluate only users of changed values.

        The :class:`~repro.util.worklist.SweepWorklist` holds member indices
        keyed ``(sweep, index)``, which replays the dense solver's
        Gauss–Seidel sweeps: when the value at index ``i`` changes during
        sweep ``s``, a user at index ``j > i`` is re-evaluated later in the
        same sweep (it would have seen the update in the dense pass too) and
        a user at ``j <= i`` in sweep ``s + 1``.  Values whose operands did
        not change are skipped outright — their re-evaluation would
        reproduce the stored interval, so the dense sweep's visit is a no-op
        there.  The per-phase sweep limits are shared with the dense solver,
        which makes the two solvers' results bit-identical.
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


class RangeAnalysisPass(AnalysisPass):
    """Pass-manager wrapper around :class:`RangeAnalysis`."""

    name = "range-analysis"

    def run_on_function(self, function: Function) -> RangeAnalysis:
        return RangeAnalysis(function)
