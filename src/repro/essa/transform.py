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

The σ-copies go in first; they need no ranges.  The function's one
:class:`~repro.rangeanalysis.analysis.RangeAnalysis` is solved on that
σ-form, so additions are classified on σ-refined ranges, the ones the
constraint generator reads.  Each integer split copy inherits its base's
interval (a copy's transfer function is the identity), so nothing is
re-solved; a pointer split copy stays untracked, like every pointer.

Both kinds of copies are ordinary :class:`repro.ir.instructions.Copy`
instructions; they are semantically transparent (removing them restores the
original program), which a test verifies by running the interpreter before
and after the transformation.
"""

from __future__ import annotations

from typing import Dict, List, Optional

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
        #: the one range analysis of the converted function (``None`` when
        #: nothing was converted).
        self.ranges: Optional[RangeAnalysis] = None

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
                                successor: BasicBlock, info: EssaInfo,
                                predecessor_counts: Dict[BasicBlock, int]) -> BasicBlock:
    """Return a block on the edge ``branch -> successor`` with that edge as its
    only incoming edge, splitting the edge when necessary.

    ``predecessor_counts`` holds each block's number of distinct
    predecessors; a split swaps one predecessor of ``successor`` for the new
    block, so the counts stay exact without being recomputed.
    """
    if predecessor_counts[successor] == 1:
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

    The conversion's one range analysis (see the module docstring) is
    returned as :attr:`EssaInfo.ranges`.
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
    with TRACER.span("essa.transform", fn=function.name):
        _insert_copies(function, info)
    return info


def _insert_copies(function: Function, info: EssaInfo) -> None:
    # --- σ-copies after conditionals -------------------------------------------------
    # First make sure every interesting branch target can host σ-copies
    # (single predecessor), then compute dominance once and insert copies in
    # dominator-tree preorder so that nested conditions naturally chain.
    predecessor_counts: Dict[BasicBlock, int] = {block: 0 for block in function.blocks}
    for block in function.blocks:
        for successor in set(block.successors()):
            predecessor_counts[successor] += 1
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
        _ensure_dedicated_successor(function, terminator, terminator.true_block, info,
                                    predecessor_counts)
        _ensure_dedicated_successor(function, terminator, terminator.false_block, info,
                                    predecessor_counts)

    # Copies leave the CFG alone, so one dominator tree serves both walks.
    domtree = DominatorTree(function)
    preorder = list(domtree.dom_tree_preorder())
    sigmas: Dict[BasicBlock, List[Copy]] = {}
    for block in preorder:
        terminator = block.terminator
        if not isinstance(terminator, Branch):
            continue
        condition = terminator.condition
        if not isinstance(condition, ICmp):
            continue
        if terminator.true_block is terminator.false_block:
            continue
        first = len(info.sigma_copies)
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
        sigmas[block] = info.sigma_copies[first:]

    # --- copies at subtractions, classified on the σ-form --------------------------
    ranges = info.ranges = RangeAnalysis(function)
    order: List[Copy] = []
    for block in preorder:
        for inst in list(block.instructions):
            if isinstance(inst, (BinaryOp, GetElementPtr)) and inst.type.is_scalar():
                base = shrink_base(inst, ranges)
                if base is None or not _is_splittable(base):
                    continue
                copy = Copy(base, "", kind="split")
                copy.split_subtraction = inst
                block.insert_after(inst, copy)
                # Identity transfer: the base's interval is the copy's
                # fixpoint.  Pointers stay untracked.
                if not base.is_pointer():
                    ranges.ranges[copy] = ranges.range_of(base)
                info.subtraction_copies.append(copy)
                order.append(copy)
                _rename_dominated_uses(domtree, base, copy)
        order.extend(sigmas.get(block, ()))
    # Numbering follows one interleaved preorder walk: per block, its split
    # copies, then the σ-copies of its terminator.
    names = [copy.name for copy in info.sigma_copies + info.subtraction_copies]
    for copy, name in zip(order, names):
        copy.name = name
