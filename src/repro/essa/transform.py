"""The live-range splitting transformation (Figure 5 of the paper).

The transformation has two parts:

* **σ-copies after conditionals** — for a conditional branch whose condition
  is a comparison between scalar variables, a copy of each compared variable
  is inserted at the beginning of the true successor and of the false
  successor, and every use dominated by the copy is renamed.  The copies are
  annotated with the comparison, the side of the comparison they rename and
  the branch they live on, so that the range analysis and the less-than
  constraint generator can recover the branch information sparsely.

* **copies at subtractions** — for an instruction ``x1 = x2 - n`` (or
  ``x1 = x2 + n`` where the range analysis proves ``n`` negative), a copy
  ``x3 = x2`` is inserted immediately after it and uses of ``x2`` dominated
  by that point are renamed.  The copy is annotated with the subtraction so
  the constraint generator can emit ``x1 ∈ LT(x3)``.

Both kinds of copies are ordinary :class:`repro.ir.instructions.Copy`
instructions; they are semantically transparent (removing them restores the
original program), which a test verifies by running the interpreter before
and after the transformation.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.ir.basicblock import BasicBlock
from repro.ir.dominators import DominatorTree
from repro.ir.function import Function
from repro.ir.instructions import (
    BinaryOp,
    Branch,
    Copy,
    GetElementPtr,
    ICmp,
    Instruction,
    Jump,
    Phi,
)
from repro.ir.values import Argument, ConstantInt, Value
from repro.obs import TRACER
from repro.rangeanalysis.analysis import RangeAnalysis
from repro.rangeanalysis.classify import shrink_base


class EssaInfo:
    """Summary of one e-SSA conversion (returned by :func:`convert_to_essa`)."""

    def __init__(self) -> None:
        self.sigma_copies: List[Copy] = []
        self.subtraction_copies: List[Copy] = []
        self.split_edges: int = 0

    @property
    def total_copies(self) -> int:
        return len(self.sigma_copies) + len(self.subtraction_copies)


def _is_splittable(value: Value) -> bool:
    """Only SSA variables of scalar type get their live ranges split."""
    if isinstance(value, ConstantInt):
        return False
    if isinstance(value, (Argument, Instruction)):
        return value.type.is_scalar()
    return False


def _ensure_dedicated_successor(function: Function, branch: Branch,
                                successor: BasicBlock, info: EssaInfo) -> BasicBlock:
    """Return a block on the edge ``branch -> successor`` with that edge as its
    only incoming edge, splitting the edge when necessary."""
    if len(successor.predecessors()) == 1:
        return successor
    # Critical edge (or an edge into a merge point): insert a dedicated block.
    middle = function.append_block(name=function.next_block_name("sigma"))
    middle.append(Jump(successor))
    branch.replace_successor(successor, middle)
    for phi in successor.phis():
        for index, incoming in enumerate(phi.incoming_blocks):
            if incoming is branch.parent:
                phi.incoming_blocks[index] = middle
    info.split_edges += 1
    return middle


def _rename_dominated_uses(domtree: DominatorTree, original: Value, copy: Copy) -> None:
    """Rewrite uses of ``original`` that are dominated by ``copy`` to use it."""
    for use in list(original.uses):
        user = use.user
        if user is copy:
            continue
        if user.parent is None:
            continue
        if isinstance(user, Phi):
            # The use point of a φ-operand is the end of the incoming block.
            pred = user.incoming_blocks[use.index]
            copy_block = copy.parent
            if copy_block is None:
                continue
            if domtree.dominates(copy_block, pred):
                user.set_operand(use.index, copy)
        else:
            if domtree.instruction_dominates(copy, user):
                user.set_operand(use.index, copy)


def convert_to_essa(function: Function) -> EssaInfo:
    """Convert ``function`` to e-SSA form in place.

    A range analysis of the pre-conversion form is solved first: it
    classifies additions with variable operands as growths or decrements.
    """
    info = EssaInfo()
    if function.is_declaration():
        return info
    # The transformation is not idempotent (a second run would duplicate the
    # σ-copies), so functions are tagged once converted and re-conversion is
    # a no-op.  This lets several analyses share one e-SSA form safely.
    if getattr(function, "essa_form", False):
        return info
    function.essa_form = True
    ranges = RangeAnalysis(function)
    with TRACER.span("essa.transform", fn=function.name):
        _insert_copies(function, ranges, info)
    return info


def _insert_copies(function: Function, ranges: RangeAnalysis,
                   info: EssaInfo) -> None:
    # --- σ-copies after conditionals -------------------------------------------------
    # First make sure every interesting branch target can host σ-copies
    # (single predecessor), then compute dominance once and insert copies in
    # dominator-tree preorder so that nested conditions naturally chain.
    for block in list(function.blocks):
        terminator = block.terminator
        if not isinstance(terminator, Branch):
            continue
        condition = terminator.condition
        if not isinstance(condition, ICmp):
            continue
        if terminator.true_block is terminator.false_block:
            continue
        if not (_is_splittable(condition.lhs) or _is_splittable(condition.rhs)):
            continue
        _ensure_dedicated_successor(function, terminator, terminator.true_block, info)
        _ensure_dedicated_successor(function, terminator, terminator.false_block, info)

    domtree = DominatorTree(function)

    for block in domtree.dom_tree_preorder():
        # Copies at subtractions (processed before the terminator of the block).
        for inst in list(block.instructions):
            if isinstance(inst, (BinaryOp, GetElementPtr)) and inst.type.is_scalar():
                base = shrink_base(inst, ranges)
                if base is None or not _is_splittable(base):
                    continue
                copy = Copy(base, "", kind="split")
                copy.split_subtraction = inst
                block.insert_after(inst, copy)
                info.subtraction_copies.append(copy)
                _rename_dominated_uses(domtree, base, copy)
        terminator = block.terminator
        if not isinstance(terminator, Branch):
            continue
        condition = terminator.condition
        if not isinstance(condition, ICmp):
            continue
        if terminator.true_block is terminator.false_block:
            continue
        for on_true, successor in ((True, terminator.true_block), (False, terminator.false_block)):
            for side, operand in (("lhs", condition.lhs), ("rhs", condition.rhs)):
                if not _is_splittable(operand):
                    continue
                copy = Copy(operand, "", kind="sigma")
                copy.sigma_condition = condition
                copy.sigma_operand_side = side
                copy.sigma_on_true_branch = on_true
                successor.insert(successor.first_non_phi_index(), copy)
                info.sigma_copies.append(copy)
                _rename_dominated_uses(domtree, operand, copy)
