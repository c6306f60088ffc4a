"""Live-variable analysis.

The disambiguation guarantee of the paper (Corollary 3.10) is phrased in
terms of variables that are *simultaneously alive*: if ``xi`` is in
``LT(xj)`` then ``xi < xj`` at every program point where both are alive.
This module computes block-level live-in/live-out sets by the standard
backward dataflow, plus the instruction-level queries the alias analysis and
the tests need (is a value live at a given instruction, do two values
interfere).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from repro.ir.basicblock import BasicBlock
from repro.ir.cfg import ControlFlowGraph
from repro.ir.function import Function
from repro.ir.instructions import Instruction, Phi
from repro.ir.values import Argument, Constant, Value


def _is_tracked(value: Value) -> bool:
    """Only SSA variables (arguments and instruction results) have live ranges."""
    return isinstance(value, (Argument, Instruction)) and not isinstance(value, Constant)


class LivenessInfo:
    """Live-in and live-out sets for every block of one function."""

    def __init__(self, function: Function) -> None:
        self.function = function
        self.cfg = ControlFlowGraph(function)
        self.live_in: Dict[BasicBlock, Set[Value]] = {}
        self.live_out: Dict[BasicBlock, Set[Value]] = {}
        self._use: Dict[BasicBlock, Set[Value]] = {}
        self._def: Dict[BasicBlock, Set[Value]] = {}
        self._phi_uses_by_pred: Dict[BasicBlock, Set[Value]] = {}
        self._compute_local_sets()
        self._solve()

    # -- local (per-block) sets ---------------------------------------------------
    def _compute_local_sets(self) -> None:
        for block in self.function.blocks:
            uses: Set[Value] = set()
            defs: Set[Value] = set()
            for inst in block.instructions:
                if isinstance(inst, Phi):
                    # φ-operands are live at the end of the corresponding
                    # predecessor, not at the top of this block.
                    for value, pred in inst.incoming():
                        if _is_tracked(value):
                            self._phi_uses_by_pred.setdefault(pred, set()).add(value)
                else:
                    for operand in inst.operands:
                        if _is_tracked(operand) and operand not in defs:
                            uses.add(operand)
                if inst.produces_value():
                    defs.add(inst)
            self._use[block] = uses
            self._def[block] = defs

    def _solve(self) -> None:
        blocks = self.function.blocks
        self.live_in = {b: set() for b in blocks}
        self.live_out = {b: set() for b in blocks}
        changed = True
        while changed:
            changed = False
            for block in reversed(blocks):
                out: Set[Value] = set(self._phi_uses_by_pred.get(block, set()))
                for succ in self.cfg.succs(block):
                    out |= self.live_in[succ]
                new_in = self._use[block] | (out - self._def[block])
                if out != self.live_out[block] or new_in != self.live_in[block]:
                    self.live_out[block] = out
                    self.live_in[block] = new_in
                    changed = True

    # -- queries --------------------------------------------------------------------
    def is_live_in(self, value: Value, block: BasicBlock) -> bool:
        return value in self.live_in.get(block, set())

    def is_live_out(self, value: Value, block: BasicBlock) -> bool:
        return value in self.live_out.get(block, set())

    def live_at(self, point: Instruction) -> Set[Value]:
        """Values live immediately *before* instruction ``point``.

        Computed by walking the containing block backwards from its end.
        """
        block = point.parent
        if block is None:
            raise ValueError("instruction is not attached to a block")
        live: Set[Value] = set(self.live_out[block])
        instructions = block.instructions
        index = instructions.index(point)
        for inst in reversed(instructions[index:]):
            if inst.produces_value():
                live.discard(inst)
            if isinstance(inst, Phi):
                continue
            for operand in inst.operands:
                if _is_tracked(operand):
                    live.add(operand)
        # Arguments are live from the function entry; a definition earlier in
        # this block that has uses after `point` is already captured above.
        return live

    def simultaneously_live(self, a: Value, b: Value) -> bool:
        """Conservative interference test for two SSA values.

        In strict SSA form two variables interfere iff one is live at the
        definition point of the other (Budimlic et al.).  Constants never
        interfere.
        """
        if not _is_tracked(a) or not _is_tracked(b):
            return False
        if a is b:
            return True
        for first, second in ((a, b), (b, a)):
            if isinstance(second, Instruction) and second.parent is not None:
                if first in self.live_at(second):
                    return True
            elif isinstance(second, Argument):
                # Arguments are defined at the entry; anything live at entry
                # together with them interferes.
                entry = self.function.entry_block
                if entry is not None and entry.instructions:
                    if first in self.live_at(entry.instructions[0]):
                        return True
        return False
