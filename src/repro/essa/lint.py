"""e-SSA well-formedness lint (the σ-node half of the self-check suite).

The range analysis and the less-than constraint generator trust the
annotations :func:`repro.essa.transform.convert_to_essa` leaves on σ-copies:
that the copy sits on the branch edge it claims, that it renames the operand
of the comparison it claims, and that every splittable operand of every
comparison-guarded branch actually *has* its σ-copies.  A σ on the wrong
edge (or a missing one) silently turns a branch refinement into an unsound
range, so the self-check suite (:mod:`repro.verify`) lints exactly these
invariants:

* every σ-copy's block has a single predecessor, and that predecessor's
  terminator is the conditional branch carrying the σ's own condition
  object;
* the block is the successor of the side (``sigma_on_true_branch``) the σ
  claims;
* the σ's source is the very operand (``sigma_operand_side``) of the
  condition it claims to rename, and σ-copies sit in the block's φ/copy
  prefix (before any computation that could observe the unrefined name);
* *completeness*: in a converted function, every comparison-guarded branch
  with distinct successors carries a σ-copy per (edge × splittable operand)
  — the "dropped σ" detector.

Every finding is returned as ``(value_name, message)`` so the caller can
attach per-value diagnostics; an empty list means the function lints clean.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.ir.cfg import ControlFlowGraph
from repro.ir.function import Function
from repro.ir.instructions import Branch, Copy, ICmp, Phi
from repro.essa.transform import _is_splittable


def _describe(value) -> str:
    name = getattr(value, "name", "") or ""
    return "%{}".format(name) if name else repr(value)


def _lint_sigma_copy(copy: Copy, cfg: ControlFlowGraph,
                     problems: List[Tuple[str, str]]) -> None:
    name = getattr(copy, "name", "") or ""
    condition = getattr(copy, "sigma_condition", None)
    side = getattr(copy, "sigma_operand_side", None)
    on_true = getattr(copy, "sigma_on_true_branch", None)
    if not isinstance(condition, ICmp):
        problems.append((name, "sigma-copy %{} carries no ICmp condition".format(name)))
        return
    if side not in ("lhs", "rhs"):
        problems.append((name, "sigma-copy %{} has operand side {!r} (expected lhs/rhs)".format(
            name, side)))
        return
    block = copy.parent
    if block is None:
        problems.append((name, "sigma-copy %{} is not attached to a block".format(name)))
        return
    # Each predecessor once, in block order, as BasicBlock.predecessors.
    predecessors = list(dict.fromkeys(cfg.preds(block)))
    if len(predecessors) != 1:
        problems.append((name, "sigma-copy %{} sits in block {} with {} predecessors "
                         "(expected a dedicated edge block)".format(
                             name, block.name, len(predecessors))))
        return
    terminator = predecessors[0].terminator
    if not isinstance(terminator, Branch) or terminator.condition is not condition:
        problems.append((name, "sigma-copy %{} is not guarded by its own condition "
                         "(predecessor {} branches on something else)".format(
                             name, predecessors[0].name)))
        return
    expected_block = terminator.true_block if on_true else terminator.false_block
    if expected_block is not block:
        problems.append((name, "sigma-copy %{} claims the {} branch of {} but sits on "
                         "the other edge".format(
                             name, "true" if on_true else "false",
                             _describe(condition))))
    operand = condition.lhs if side == "lhs" else condition.rhs
    if copy.source is not operand:
        problems.append((name, "sigma-copy %{} renames {} but its condition's {} operand "
                         "is {}".format(name, _describe(copy.source), side,
                                        _describe(operand))))
    # σ-copies must stay in the φ/copy prefix of the block: an instruction
    # ahead of them could observe the unrefined name the σ was meant to split.
    for inst in block.instructions:
        if inst is copy:
            break
        if not isinstance(inst, (Phi, Copy)):
            problems.append((name, "sigma-copy %{} appears after non-copy instruction "
                             "{} in block {}".format(
                                 name, _describe(inst), block.name)))
            break


def _lint_completeness(function: Function,
                       problems: List[Tuple[str, str]]) -> None:
    for block in function.blocks:
        terminator = block.terminator
        if not isinstance(terminator, Branch):
            continue
        condition = terminator.condition
        if not isinstance(condition, ICmp):
            continue
        if terminator.true_block is terminator.false_block:
            continue
        for on_true, successor in ((True, terminator.true_block),
                                   (False, terminator.false_block)):
            for side, operand in (("lhs", condition.lhs), ("rhs", condition.rhs)):
                if not _is_splittable(operand):
                    continue
                if any(isinstance(inst, Copy)
                       and getattr(inst, "kind", None) == "sigma"
                       and getattr(inst, "sigma_condition", None) is condition
                       and getattr(inst, "sigma_operand_side", None) == side
                       and getattr(inst, "sigma_on_true_branch", None) is on_true
                       for inst in successor.instructions):
                    continue
                problems.append((getattr(operand, "name", "") or "",
                                 "branch on {} in block {} is missing the σ-copy of "
                                 "its {} operand {} on the {} edge".format(
                                     _describe(condition), block.name, side,
                                     _describe(operand),
                                     "true" if on_true else "false")))


def sigma_problems(function: Function) -> List[Tuple[str, str]]:
    """Every σ-invariant violation of ``function`` as ``(value, message)``.

    Placement problems are checked on every σ-copy present; the completeness
    check (missing σs) only applies to functions tagged ``essa_form`` — a
    plain-SSA function legitimately has none.
    """
    problems: List[Tuple[str, str]] = []
    if function.is_declaration():
        return problems
    cfg = ControlFlowGraph(function)
    for block in function.blocks:
        for inst in block.instructions:
            if isinstance(inst, Copy) and getattr(inst, "kind", None) == "sigma":
                _lint_sigma_copy(inst, cfg, problems)
    if getattr(function, "essa_form", False):
        _lint_completeness(function, problems)
    return problems
