"""The range-analysis driver.

The paper reads intervals for one job (Section 3.2): deciding whether the
offset of an addition, subtraction or ``gep`` is strictly positive or
strictly negative.  So the analysis computes an
:class:`~repro.rangeanalysis.interval.Interval` only for integer values: the
non-pointer arguments and the non-pointer results of arithmetic,
φ-functions, copies and loads (loads are sources with unknown ranges).  A
pointer gets no entry and reads as top, like any untracked value.

The schedule is a weak topological ordering in the sense of Bourdoncle
("Efficient chaotic iteration strategies with widenings", 1993), built in
two steps:

1. one walk over the blocks in reverse postorder evaluates a value once,
   and marks it final, when all its tracked inputs are final.  A σ-copy's
   inputs include the operands of its branch condition.  In SSA a
   definition dominates its uses, so every value is final here except the
   *residue*: the values that wait on a φ back-edge operand, plus
   everything that depends on them;
2. Tarjan's algorithm (:mod:`repro.util.scc`) splits the residue's def-use
   subgraph into strongly connected components, solved in topological
   order.  An acyclic residue value is evaluated once; a cyclic component
   (a loop) is iterated with *widening* until stable, then *narrowed* to
   recover precision lost to widening (in particular bounds coming from
   loop exit conditions).

When the function is in e-SSA form (after
:func:`repro.essa.transform.convert_to_essa`), σ-copies carry the branch
condition that dominates them; the analysis uses those conditions to refine
ranges, which is how ``for (i = 0; i < N; i++)`` yields ``i ∈ [0, N-1]`` on
the true branch.  The conversion solves the function's one analysis itself
(see :mod:`repro.essa.transform`).

A cyclic component is solved by a sparse def-use worklist.  Only users of
values whose interval actually changed are re-evaluated; per-value
widening-point tracking records where widening fired (the back-edge φ/σ
nodes in practice).  The worklist is ordered by ``(sweep, member index)``
so it replays full Gauss-Seidel sweeps over the component exactly, skipping
only evaluations that are provably no-ops — the resulting intervals are
**bit-identical** to those of the dense sweeps, which
:class:`repro.verify.reference.DenseRangeAnalysis` keeps as the independent
reference for differential tests and ``benchmarks/bench_solver_hotpath.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.ir.cfg import reverse_postorder
from repro.ir.function import Function
from repro.ir.instructions import BinaryOp, Copy, ICmp, Instruction, Load, Phi
from repro.ir.types import PointerType
from repro.ir.values import Argument, ConstantInt, Value
from repro.obs import TRACER
from repro.rangeanalysis.interval import Interval
from repro.util.scc import strongly_connected_components
from repro.util.worklist import SolverInfo


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


class SCCComponent:
    """One cyclic component of the residue, pre-sliced for the solvers.

    ``members`` is the component in its canonical (Tarjan) order — the
    order the dense reference sweeps visit; ``users`` holds, per member
    index, the sorted member indices of its intra-component dependants (the
    def-use slice the sparse solver schedules from).
    """

    __slots__ = ("members", "users")

    def __init__(self, members: List[Value], users: List[List[int]]) -> None:
        self.members = members
        self.users = users

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return "<SCCComponent size={}>".format(len(self.members))


def _inputs(inst: Instruction) -> Sequence[Value]:
    """The operands ``inst``'s transfer function reads.

    σ-copies are refined with the branch condition they encode, so they
    also read the condition's operands.
    """
    operands = inst.operands
    if type(inst) is Copy:
        condition = getattr(inst, "sigma_condition", None)
        if condition is not None:
            return operands + condition.operands
    return operands


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
        return self.ranges.get(value) or _untracked_range(value)

    def is_strictly_positive(self, value: Value) -> bool:
        return self.range_of(value).is_strictly_positive()

    def is_strictly_negative(self, value: Value) -> bool:
        return self.range_of(value).is_strictly_negative()

    # -- solving ---------------------------------------------------------------------
    def _run(self) -> None:
        function = self.function
        if function.is_declaration():
            return
        ranges = self.ranges
        for argument in function.arguments:
            if not isinstance(argument.type, PointerType):
                ranges[argument] = self.argument_ranges.get(argument, Interval.top())
        # One reverse-postorder walk: a value whose tracked inputs are all
        # final is final after one evaluation; the rest wait for the residue
        # solve.  An input not in ``ranges`` is final only if untracked.
        transfer = _TRANSFER
        residue: Set[Value] = set()
        for block in reverse_postorder(function):
            for inst in block.instructions:
                handler = transfer.get(type(inst))
                if handler is None or isinstance(inst.type, PointerType):
                    continue
                for operand in _inputs(inst):
                    if (operand not in ranges and type(operand) in transfer
                            and not isinstance(operand.type, PointerType)):
                        residue.add(inst)
                        break
                else:
                    ranges[inst] = handler(self, inst)
        statistics = self.statistics
        statistics.evaluations += len(ranges)
        statistics.components += len(ranges)
        if residue:
            self._solve_residue(residue)
        statistics.widening_points = len(self.widening_points)

    def _solve_residue(self, residue: Set[Value]) -> None:
        """Solve the values the walk left waiting, one SCC at a time.

        Tarjan runs over the residue's def-use subgraph with its nodes in
        instruction order; every input outside the residue is final.
        """
        ranges = self.ranges
        statistics = self.statistics
        nodes = [inst for block in self.function.blocks
                 for inst in block.instructions if inst in residue]
        users: Dict[Value, List[Value]] = {node: [] for node in nodes}
        bottom = Interval.bottom()
        for node in nodes:
            ranges[node] = bottom
            for operand in _inputs(node):
                if operand in residue:
                    users[operand].append(node)
        for members in reversed(strongly_connected_components(nodes, users)):
            statistics.components += 1
            if len(members) == 1 and members[0] not in users[members[0]]:
                ranges[members[0]] = self._evaluate(members[0])
                continue
            statistics.cyclic_components += 1
            index_of = {value: index for index, value in enumerate(members)}
            self._solve_cyclic(SCCComponent(members, [
                sorted({index_of[user] for user in users[value] if user in index_of})
                for value in members]))

    def _solve_cyclic(self, component: SCCComponent) -> None:
        """Change-driven solver: re-evaluate only users of changed values.

        :meth:`_sweep` replays dense Gauss–Seidel sweeps over the component
        in member order, visiting only marked members: when the value at
        index ``i`` changes during a sweep, a user at index ``j > i`` is
        re-evaluated later in the same sweep (it would have seen the update
        in the dense pass too) and a user at ``j <= i`` in the next sweep.
        Values whose operands did not change are skipped outright — their
        re-evaluation would reproduce the stored interval, so the dense
        sweep's visit is a no-op there.  The per-phase sweep limits are the
        class constants above, shared with the dense reference, which makes
        the two solvers' results bit-identical.
        """
        count = len(component.members)
        # Phase 1a: bounded chaotic iteration.
        marked, _changed = self._sweep(component, [True] * count, _replace,
                                       self.ITERATIONS_BEFORE_WIDENING)
        if True not in marked:
            return
        # Phase 1b: widening until the change frontier drains.
        _marked, widened = self._sweep(component, marked, Interval.widen, None)
        self.widening_points.update(widened)
        self.statistics.widenings += len(widened)
        # Phase 2: narrowing.  Every member re-enters once — the transfer
        # changes from widening to narrowing, so "operands unchanged" no
        # longer implies a no-op — then only users of refined values follow.
        _marked, narrowed = self._sweep(component, [True] * count,
                                        Interval.narrow,
                                        self.MAX_NARROWING_ITERATIONS)
        self.statistics.narrowings += len(narrowed)

    def _sweep(self, component: SCCComponent, marked: List[bool],
               combine: Callable[[Interval, Interval], Interval],
               limit: Optional[int]) -> Tuple[List[bool], List[Value]]:
        """Run sweeps over the ``marked`` members until none is marked or
        ``limit`` sweeps have run.

        A visit stores ``combine(stored, transfer result)``.  Returns the
        marks left for the next sweep and, per change, the changed value.
        """
        members = component.members
        users = component.users
        ranges = self.ranges
        evaluate = self._evaluate
        statistics = self.statistics
        changed: List[Value] = []
        sweeps = 0
        while True in marked and sweeps != limit:
            following = [False] * len(members)
            for index, value in enumerate(members):
                if not marked[index]:
                    continue
                marked[index] = False
                statistics.pops += 1
                stored = ranges[value]
                new = combine(stored, evaluate(value))
                if new == stored:
                    continue
                ranges[value] = new
                changed.append(value)
                for user in users[index]:
                    target = marked if user > index else following
                    if target[user]:
                        statistics.coalesced_pushes += 1
                    else:
                        target[user] = True
            marked = following
            sweeps += 1
        return marked, changed

    # -- transfer functions -----------------------------------------------------------
    def _evaluate(self, value: Value) -> Interval:
        self.statistics.evaluations += 1
        return _TRANSFER[type(value)](self, value)

    def _evaluate_binary(self, inst: BinaryOp) -> Interval:
        ranges = self.ranges
        lhs, rhs = inst.operands
        lhs_range = ranges.get(lhs) or _untracked_range(lhs)
        return _BINARY[inst.op](lhs_range, ranges.get(rhs) or _untracked_range(rhs))

    def _evaluate_phi(self, phi: Phi) -> Interval:
        ranges = self.ranges
        result = Interval.bottom()
        for incoming in phi.operands:
            result = result.join(ranges.get(incoming) or _untracked_range(incoming))
        return result

    def _evaluate_copy(self, copy: Copy) -> Interval:
        return self._refine_sigma(copy, self.range_of(copy.source))

    def _evaluate_load(self, load: Load) -> Interval:
        # A load produces an unknown integer.
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
        lhs_range = self.range_of(condition.lhs)
        rhs_range = self.range_of(condition.rhs)
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


def _untracked_range(value: Value) -> Interval:
    """The interval of a value with no entry: exact for a constant, else top."""
    if isinstance(value, ConstantInt):
        return Interval.constant(value.value)
    return Interval.top()


def _replace(_stored: Interval, new: Interval) -> Interval:
    return new

_BINARY = {
    "add": Interval.add,
    "sub": Interval.sub,
    "mul": Interval.mul,
    "div": Interval.div,
    "rem": Interval.rem,
}

#: the transfer function of each tracked instruction class; an instruction
#: of any other class, or of pointer type, is untracked (arguments are
#: evaluated before the walk).
_TRANSFER = {
    BinaryOp: RangeAnalysis._evaluate_binary,
    Phi: RangeAnalysis._evaluate_phi,
    Copy: RangeAnalysis._evaluate_copy,
    Load: RangeAnalysis._evaluate_load,
}
