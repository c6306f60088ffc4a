"""IR verifier.

The analyses rely on structural invariants of the IR (blocks end in a
terminator, SSA definitions dominate their uses, φ-functions match their
predecessors).  The verifier checks those invariants in one walk over
each function's instructions, with one CFG and one dominator tree, and
raises :class:`VerificationError` with a readable message when one is
violated; tests and the frontend run it after building or transforming IR.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.ir.basicblock import BasicBlock
from repro.ir.cfg import ControlFlowGraph
from repro.ir.dominators import DominatorTree
from repro.ir.function import Function
from repro.ir.instructions import Branch, Instruction, Jump, Phi, Return
from repro.ir.module import Module
from repro.ir.printer import format_instruction
from repro.ir.types import VoidType
from repro.ir.values import Argument, Constant, GlobalVariable, Value


class VerificationError(Exception):
    """Raised when a module or function violates an IR invariant."""


def _error(message: str) -> None:
    raise VerificationError(message)


#: the invariant categories in reporting order, by the names their crash
#: reports carry.
_CATEGORIES = ("_check_blocks", "_check_operand_scope", "_check_phis",
               "_check_ssa_dominance", "_check_unique_names")
_BLOCKS, _SCOPE, _PHIS, _DOMINANCE, _NAMES = range(len(_CATEGORIES))
_TERMINATORS = (Branch, Jump, Return)


def verify_function(function: Function) -> None:
    """Check structural and SSA invariants of ``function``.

    Raises the first problem of the first category that has one, in the
    order blocks, operand scope, φ-functions, SSA dominance, unique names.
    """
    if function.is_declaration():
        return
    for outcome in _walk(function):
        if outcome is not None:
            raise outcome


def verify_module(module: Module) -> None:
    for function in module.functions:
        try:
            verify_function(function)
        except VerificationError as exc:
            raise VerificationError("in function @{}: {}".format(function.name, exc)) from exc


def function_problems(function: Function) -> List[str]:
    """Every invariant violation of ``function``, as messages (lint mode).

    Unlike :func:`verify_function` this does not stop at the first problem:
    each category contributes at most one message, its first finding, so
    the self-check suite (:mod:`repro.verify`) can report per-category
    diagnostics instead of one opaque exception.  A category whose checking
    crashes on a malformed CFG reports the crash instead.
    """
    if function.is_declaration():
        return []
    problems: List[str] = []
    for name, outcome in zip(_CATEGORIES, _walk(function)):
        if isinstance(outcome, VerificationError):
            problems.append(str(outcome))
        elif outcome is not None:
            problems.append("{} crashed: {}".format(name, outcome))
    return problems


# ---------------------------------------------------------------------------
# The walk
# ---------------------------------------------------------------------------

def _walk(function: Function) -> List[Optional[Exception]]:
    """Check every category in one pass over ``function``'s instructions.

    Returns, per category, its first problem as a
    :class:`VerificationError`, the exception its checking raised, or None.
    Each category meets its problems in the order it always reported them:
    block by block, and within a block in the order of the messages below.
    """
    found: List[Optional[Exception]] = [None] * len(_CATEGORIES)

    def report(category: int, message: str) -> None:
        if found[category] is None:
            found[category] = VerificationError(message)

    cfg: Optional[ControlFlowGraph] = None
    domtree: Optional[DominatorTree] = None
    try:
        cfg = ControlFlowGraph(function)
        domtree = DominatorTree(function, cfg)
    except Exception as exc:  # noqa: BLE001 - a malformed CFG can break the builders
        if cfg is None:
            found[_PHIS] = exc
        found[_DOMINANCE] = exc

    names: Dict[str, Value] = {}
    for argument in function.arguments:
        _check_name(argument, names, report)

    entry = function.entry_block
    entry_has_predecessor = False
    for block in function.blocks:
        instructions = block.instructions
        if block.parent is not function:
            report(_BLOCKS, "block {} has a stale parent link".format(block.name))
        elif not instructions:
            report(_BLOCKS, "block {} is empty".format(block.name))
        elif block.terminator is None:
            report(_BLOCKS, "block {} does not end in a terminator".format(block.name))
        last = len(instructions) - 1
        middle = stale = misplaced_phi = None
        preds: Optional[List[BasicBlock]] = None
        pred_ids: Set[int] = set()
        seen_non_phi = False
        defined: Set[Instruction] = set()
        for index, inst in enumerate(instructions):
            if middle is None and index < last and isinstance(inst, _TERMINATORS):
                middle = inst
            if inst.parent is not block and stale is None:
                stale = inst
            operands = inst.operands
            is_phi = isinstance(inst, Phi)
            if is_phi:
                if seen_non_phi and misplaced_phi is None:
                    misplaced_phi = inst
                if found[_PHIS] is None:
                    try:
                        if preds is None:
                            # Each predecessor once, in block order.
                            preds = list(dict.fromkeys(cfg.preds(block)))  # type: ignore[union-attr]
                            pred_ids = set(map(id, preds))
                        _check_phi(inst, operands, block, preds, pred_ids)  # type: ignore[arg-type]
                    except Exception as exc:  # noqa: BLE001 - VerificationError or a crash
                        found[_PHIS] = exc
            else:
                seen_non_phi = True
            for position, operand in enumerate(operands):
                _check_operand(function, inst, position, operand, block, defined, domtree,
                               found, report)
            defined.add(inst)
            if not isinstance(inst.type, VoidType):
                _check_name(inst, names, report)
        if middle is not None:
            report(_BLOCKS, "block {} has a terminator in the middle: {}".format(
                block.name, format_instruction(middle)))
        if stale is not None:
            report(_BLOCKS, "instruction {} has a stale parent link".format(
                format_instruction(stale)))
        # Branch targets must belong to this function.
        try:
            for succ in block.successors():
                if succ.parent is not function:
                    report(_BLOCKS, "block {} branches to a block of another function".format(
                        block.name))
                entry_has_predecessor = entry_has_predecessor or succ is entry
        except Exception as exc:  # noqa: BLE001 - a malformed terminator
            if found[_BLOCKS] is None:
                found[_BLOCKS] = exc
        if misplaced_phi is not None:
            # φ-functions must be grouped at the top of the block.
            report(_PHIS, "phi %{} appears after a non-phi in block {}".format(
                misplaced_phi.name, block.name))
    if entry_has_predecessor:
        report(_BLOCKS, "the entry block must not have predecessors")
    block_names = [b.name for b in function.blocks]
    if len(block_names) != len(set(block_names)):
        report(_NAMES, "duplicate block names in function @{}".format(function.name))
    return found


def _check_name(value: Value, names: Dict[str, Value],
                report: Callable[[int, str], None]) -> None:
    if not value.name:
        report(_NAMES, "unnamed value {!r}".format(value))
    elif value.name in names:
        report(_NAMES, "duplicate value name %{}".format(value.name))
    names[value.name] = value


def _check_operand(function: Function, inst: Instruction, position: int, operand: Value,
                   block: BasicBlock, defined: Set[Instruction],
                   domtree: Optional[DominatorTree], found: List[Optional[Exception]],
                   report: Callable[[int, str], None]) -> None:
    """The operand-scope and SSA-dominance checks of one operand."""
    if isinstance(operand, Instruction):
        def_block = operand.parent
        if def_block is None or def_block.parent is not function:
            report(_SCOPE, "instruction {} uses a value defined in another function".format(
                format_instruction(inst)))
        if found[_DOMINANCE] is None:
            try:
                _check_dominance(function, inst, position, operand, block, defined,
                                 domtree)  # type: ignore[arg-type]
            except Exception as exc:  # noqa: BLE001 - VerificationError or a crash
                found[_DOMINANCE] = exc
    elif isinstance(operand, Argument):
        if operand.function is not function:
            report(_SCOPE, "instruction {} uses an argument of another function".format(
                format_instruction(inst)))
    elif not isinstance(operand, (Constant, GlobalVariable)):
        report(_SCOPE, "instruction {} has an operand of unexpected kind {}".format(
            format_instruction(inst), type(operand).__name__))


def _check_phi(phi: Phi, operands: Tuple[Value, ...], block: BasicBlock,
               preds: List[BasicBlock], pred_ids: Set[int]) -> None:
    incoming_blocks = phi.incoming_blocks
    incoming_ids = set(map(id, incoming_blocks))
    if len(incoming_blocks) != len(incoming_ids):
        _error("phi %{} has duplicate incoming blocks".format(phi.name))
    if incoming_ids != pred_ids:
        _error(
            "phi %{} of block {} does not cover its predecessors "
            "(has [{}], expected [{}])".format(
                phi.name, block.name,
                ", ".join(b.name for b in incoming_blocks),
                ", ".join(b.name for b in preds),
            )
        )
    phi_type = phi.type
    for value, _pred in zip(operands, incoming_blocks):
        if value.type is not phi_type and value.type != phi_type:
            _error("phi %{} mixes types {} and {}".format(phi.name, phi_type, value.type))


def _check_dominance(function: Function, inst: Instruction, position: int,
                     operand: Instruction, block: BasicBlock, defined: Set[Instruction],
                     domtree: DominatorTree) -> None:
    """Raise unless ``operand``, operand ``position`` of ``inst``, dominates that use.

    ``defined`` holds the instructions before ``inst`` in ``block``.
    """
    def_block = operand.parent
    if def_block is None:
        _error("instruction {} uses an erased value %{}".format(
            format_instruction(inst), operand.name))
    if def_block is inst.parent and not isinstance(inst, Phi):
        if def_block is block and operand in defined:
            return
        # The slow path, taken only on failure: positions in the blocks'
        # instruction lists.
        position_of = {value: index for other in function.blocks
                       for index, value in enumerate(other.instructions)}
        dominates = position_of[operand] < position_of[inst]
    else:
        dominates = domtree.value_dominates_use(operand, inst, position)
    if not dominates:
        _error("definition of %{} does not dominate its use in {}".format(
            operand.name, format_instruction(inst)))
