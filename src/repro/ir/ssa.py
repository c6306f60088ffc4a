"""SSA construction (mem2reg).

The mini-C frontend lowers local variables to ``alloca`` slots accessed with
``load``/``store``.  This pass promotes those slots to SSA registers using
the classic Cytron et al. algorithm: φ-functions are inserted at the
iterated dominance frontier of the blocks that store to a slot, then one
renaming walk over the dominator tree, carrying a current value for every
slot at once, replaces loads with the reaching definition.

Only promotable allocas are touched: scalar-typed slots whose address is
used exclusively by loads and stores (never stored itself, never passed to a
call, never offset with ``gep``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.ir.basicblock import BasicBlock
from repro.ir.dominators import DominatorTree
from repro.ir.function import Function
from repro.ir.instructions import Alloca, Instruction, Load, Phi, Store
from repro.ir.values import Undef, Value
from repro.obs import TRACER


def promotable_allocas(function: Function) -> List[Alloca]:
    """Return the allocas of ``function`` that can be promoted to SSA values."""
    result: List[Alloca] = []
    for inst in function.instructions():
        if not isinstance(inst, Alloca):
            continue
        if inst.array_size is not None:
            continue
        if not inst.allocated_type.is_scalar():
            continue
        promotable = True
        for use in inst.uses:
            user = use.user
            if isinstance(user, Load):
                continue
            if isinstance(user, Store) and user.pointer is inst and user.value is not inst:
                continue
            promotable = False
            break
        if promotable:
            result.append(inst)
    return result


def promote_memory_to_registers(function: Function) -> int:
    """Run mem2reg on ``function``; return the number of promoted allocas."""
    if function.is_declaration():
        return 0
    allocas = promotable_allocas(function)
    if not allocas:
        return 0
    with TRACER.span("ir.mem2reg", fn=function.name, allocas=len(allocas)):
        _promote(function, allocas, DominatorTree(function))
    return len(allocas)


def _promote(function: Function, allocas: List[Alloca], domtree: DominatorTree) -> None:
    # Sets of blocks hash by identity, so their iteration order varies from
    # run to run; ordering by position in the function keeps φ insertion (and
    # hence value numbering and all downstream analyses) deterministic.
    block_order = {block: index for index, block in enumerate(function.blocks)}

    # 1. Insert each slot's φ-functions at the iterated dominance frontier of
    #    its stores, one slot after the other in alloca order.
    phis: Dict[BasicBlock, List[Tuple[int, Phi]]] = {}
    for slot, alloca in enumerate(allocas):
        defining_blocks: Set[BasicBlock] = set()
        for use in alloca.uses:
            user = use.user
            if isinstance(user, Store) and user.parent is not None:
                defining_blocks.add(user.parent)
        phi_blocks: Set[BasicBlock] = set()
        worklist = sorted(defining_blocks, key=block_order.get)
        while worklist:
            block = worklist.pop()
            for frontier_block in sorted(domtree.dominance_frontier(block),
                                         key=block_order.get):
                if frontier_block in phi_blocks:
                    continue
                phi_blocks.add(frontier_block)
                phi = Phi(alloca.allocated_type, "")
                frontier_block.insert(0, phi)
                phis.setdefault(frontier_block, []).append((slot, phi))
                if frontier_block not in defining_blocks:
                    worklist.append(frontier_block)

    # 2. Rename every slot in one walk along the dominator tree, carrying the
    #    current value of each slot (None before any store reaches it).
    slots = {alloca: slot for slot, alloca in enumerate(allocas)}

    def reaching(current: List[Optional[Value]], slot: int) -> Value:
        value = current[slot]
        return value if value is not None else Undef(allocas[slot].allocated_type)

    entry = function.entry_block
    assert entry is not None
    stack: List[Tuple[BasicBlock, List[Optional[Value]]]] = [(entry, [None] * len(allocas))]
    while stack:
        block, incoming = stack.pop()
        current = list(incoming)
        for slot, phi in phis.get(block, ()):
            current[slot] = phi
        kept: List[Instruction] = []
        for inst in block.instructions:
            slot = slots.get(inst.pointer) if isinstance(inst, (Load, Store)) else None
            if slot is None:
                kept.append(inst)
                continue
            if isinstance(inst, Store):
                current[slot] = inst.value
            else:
                inst.replace_all_uses_with(reaching(current, slot))
            inst.drop_operands()
            inst.parent = None
        block.instructions = kept
        for succ in block.successors():
            for slot, phi in phis.get(succ, ()):
                phi.add_incoming(reaching(current, slot), block)
        stack.extend((child, current) for child in reversed(domtree.children.get(block, [])))

    # 3. The allocas are now dead.
    for alloca in allocas:
        alloca.erase_from_parent()

    # 4. Fill φ entries of predecessors the walk never reached (unreachable
    #    blocks) with Undef.
    for block, block_phis in phis.items():
        preds = list(dict.fromkeys(domtree.cfg.preds(block)))
        for _slot, phi in block_phis:
            covered = {id(b) for b in phi.incoming_blocks}
            for pred in preds:
                if id(pred) not in covered:
                    phi.add_incoming(Undef(phi.type), pred)
