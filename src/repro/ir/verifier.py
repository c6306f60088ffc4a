"""IR verifier.

The analyses rely on structural invariants of the IR (blocks end in a
terminator, SSA definitions dominate their uses, φ-functions match their
predecessors).  The verifier checks those invariants and raises
:class:`VerificationError` with a readable message when one is violated;
tests and the frontend run it after building or transforming IR.
"""

from __future__ import annotations

from typing import List

from repro.ir.basicblock import BasicBlock
from repro.ir.cfg import ControlFlowGraph
from repro.ir.dominators import DominatorTree
from repro.ir.function import Function
from repro.ir.instructions import Branch, Instruction, Jump, Phi, Return
from repro.ir.module import Module
from repro.ir.printer import format_instruction
from repro.ir.values import Argument, Constant, GlobalVariable, Value


class VerificationError(Exception):
    """Raised when a module or function violates an IR invariant."""


def _error(message: str) -> None:
    raise VerificationError(message)


def verify_function(function: Function) -> None:
    """Check structural and SSA invariants of ``function``."""
    if function.is_declaration():
        return
    _check_blocks(function)
    _check_operand_scope(function)
    _check_phis(function)
    _check_ssa_dominance(function)
    _check_unique_names(function)


def verify_module(module: Module) -> None:
    for function in module.functions:
        try:
            verify_function(function)
        except VerificationError as exc:
            raise VerificationError("in function @{}: {}".format(function.name, exc)) from exc


def function_problems(function: Function) -> List[str]:
    """Every invariant violation of ``function``, as messages (lint mode).

    Unlike :func:`verify_function` this does not stop at the first problem:
    each check runs independently and contributes at most one message (the
    checks themselves raise on their first finding), so the self-check suite
    (:mod:`repro.verify`) can report per-category diagnostics instead of one
    opaque exception.
    """
    if function.is_declaration():
        return []
    problems: List[str] = []
    for check in (_check_blocks, _check_operand_scope, _check_phis,
                  _check_ssa_dominance, _check_unique_names):
        try:
            check(function)
        except VerificationError as exc:
            problems.append(str(exc))
        except Exception as exc:  # a malformed CFG can break the checkers too
            problems.append("{} crashed: {}".format(check.__name__, exc))
    return problems


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------

def _check_blocks(function: Function) -> None:
    entry = function.entry_block
    if entry is None:
        _error("function has no entry block")
    entry_has_predecessor = False
    for block in function.blocks:
        if block.parent is not function:
            _error("block {} has a stale parent link".format(block.name))
        if not block.instructions:
            _error("block {} is empty".format(block.name))
        if block.terminator is None:
            _error("block {} does not end in a terminator".format(block.name))
        for inst in block.instructions[:-1]:
            if inst.is_terminator():
                _error("block {} has a terminator in the middle: {}".format(
                    block.name, format_instruction(inst)))
        for inst in block.instructions:
            if inst.parent is not block:
                _error("instruction {} has a stale parent link".format(format_instruction(inst)))
        # Branch targets must belong to this function.
        for succ in block.successors():
            if succ.parent is not function:
                _error("block {} branches to a block of another function".format(block.name))
            entry_has_predecessor = entry_has_predecessor or succ is entry
    if entry_has_predecessor:
        _error("the entry block must not have predecessors")


def _check_operand_scope(function: Function) -> None:
    for inst in function.instructions():
        for operand in inst.operands:
            if isinstance(operand, Constant) or isinstance(operand, GlobalVariable):
                continue
            if isinstance(operand, Argument):
                if operand.function is not function:
                    _error("instruction {} uses an argument of another function".format(
                        format_instruction(inst)))
                continue
            if isinstance(operand, Instruction):
                if operand.function is not function:
                    _error("instruction {} uses a value defined in another function".format(
                        format_instruction(inst)))
                continue
            _error("instruction {} has an operand of unexpected kind {}".format(
                format_instruction(inst), type(operand).__name__))


def _check_phis(function: Function) -> None:
    cfg = ControlFlowGraph(function)
    for block in function.blocks:
        # Each predecessor once, in block order, as BasicBlock.predecessors.
        preds = list(dict.fromkeys(cfg.preds(block)))
        for phi in block.phis():
            incoming_blocks = phi.incoming_blocks
            if len(incoming_blocks) != len(set(id(b) for b in incoming_blocks)):
                _error("phi %{} has duplicate incoming blocks".format(phi.name))
            if set(id(b) for b in incoming_blocks) != set(id(b) for b in preds):
                _error(
                    "phi %{} of block {} does not cover its predecessors "
                    "(has [{}], expected [{}])".format(
                        phi.name, block.name,
                        ", ".join(b.name for b in incoming_blocks),
                        ", ".join(b.name for b in preds),
                    )
                )
            for value, _pred in phi.incoming():
                if value.type != phi.type:
                    _error("phi %{} mixes types {} and {}".format(
                        phi.name, phi.type, value.type))
        # φ-functions must be grouped at the top of the block.
        seen_non_phi = False
        for inst in block.instructions:
            if isinstance(inst, Phi):
                if seen_non_phi:
                    _error("phi %{} appears after a non-phi in block {}".format(
                        inst.name, block.name))
            else:
                seen_non_phi = True


def _check_ssa_dominance(function: Function) -> None:
    domtree = DominatorTree(function)
    position = {inst: index for block in function.blocks
                for index, inst in enumerate(block.instructions)}
    for inst in function.instructions():
        for index, operand in enumerate(inst.operands):
            if not isinstance(operand, Instruction):
                continue
            if operand.parent is None:
                _error("instruction {} uses an erased value %{}".format(
                    format_instruction(inst), operand.name))
            if operand.parent is inst.parent and not isinstance(inst, Phi):
                dominates = position[operand] < position[inst]
            else:
                dominates = domtree.value_dominates_use(operand, inst, index)
            if not dominates:
                _error("definition of %{} does not dominate its use in {}".format(
                    operand.name, format_instruction(inst)))


def _check_unique_names(function: Function) -> None:
    seen = {}
    for value in function.values():
        if not value.name:
            _error("unnamed value {!r}".format(value))
        if value.name in seen:
            _error("duplicate value name %{}".format(value.name))
        seen[value.name] = value
    block_names = [b.name for b in function.blocks]
    if len(block_names) != len(set(block_names)):
        _error("duplicate block names in function @{}".format(function.name))
