"""SSA construction for the scalars the frontend keeps out of memory.

The mini-C frontend gives a local scalar whose address is never taken no
``alloca`` slot: a write records the scalar's new value in the current
block (:meth:`PromotedScalars.write`), and a read returns the value the
block last wrote or, before any write in the block, a :class:`Placeholder`
for the value live into the block.  Once the function's CFG is complete,
:func:`promote_memory_to_registers` finishes the job with the classic
Cytron et al. algorithm: φ-functions go at the iterated dominance frontier
of each scalar's defining blocks, and one walk over the dominator tree
resolves every placeholder to the definition reaching its block — the
block's own φ, or else the value live out of its immediate dominator, or
``undef`` before any write.  The result is the minimal SSA form Clang +
LLVM ``-mem2reg`` make of ``alloca`` slots, built without the slots.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.ir.basicblock import BasicBlock
from repro.ir.dominators import DominatorTree
from repro.ir.function import Function
from repro.ir.instructions import Phi
from repro.ir.types import Type
from repro.ir.values import Undef, Value
from repro.obs import TRACER


class Scalar:
    """One promoted local: its type and the block that declares it."""

    __slots__ = ("type", "block", "slot")

    def __init__(self, ty: Type, block: BasicBlock) -> None:
        self.type = ty
        self.block = block
        #: position in the SSA step's scalar order, set by that step.
        self.slot: Optional[int] = None


class Placeholder(Value):
    """A read of a scalar before any write to it in the reading block.

    It stands in for the value live into the block until
    :func:`promote_memory_to_registers` knows that value.
    """

    def __init__(self, scalar: Scalar) -> None:
        super().__init__(scalar.type, "")
        self.scalar = scalar
        #: the reaching definition, once resolved.
        self.value: Optional[Value] = None

    def resolve(self, value: Value) -> None:
        """Hand every use of the placeholder over to ``value``."""
        self.value = value
        uses = value.uses
        for use in self.uses:
            use.user._operands[use.index] = value
            uses.append(use)
        self.uses = []


class PromotedScalars:
    """The reads and writes of one function's promoted scalars, per block."""

    def __init__(self) -> None:
        self.scalars: List[Scalar] = []
        #: per block, the last value written to each scalar it writes.
        self.written: Dict[BasicBlock, Dict[Scalar, Value]] = {}
        #: per block, its placeholders in the order they were read.
        self.pending: Dict[BasicBlock, List[Placeholder]] = {}

    def declare(self, ty: Type, block: BasicBlock) -> Scalar:
        scalar = Scalar(ty, block)
        self.scalars.append(scalar)
        return scalar

    def write(self, block: BasicBlock, scalar: Scalar, value: Value) -> None:
        written = self.written.get(block)
        if written is None:
            written = self.written[block] = {}
        written[scalar] = value

    def read(self, block: BasicBlock, scalar: Scalar) -> Value:
        written = self.written.get(block)
        if written is not None:
            value = written.get(scalar)
            if value is not None:
                return value
        placeholder = Placeholder(scalar)
        pending = self.pending.get(block)
        if pending is None:
            self.pending[block] = [placeholder]
        else:
            pending.append(placeholder)
        return placeholder


def promote_memory_to_registers(function: Function, scalars: PromotedScalars) -> int:
    """Place the φs of ``scalars`` and resolve their placeholders.

    ``function``'s CFG must be complete and free of unreachable blocks.
    Scalars declared in a removed block are dropped.  Returns the number of
    scalars placed.
    """
    block_order = {block: index for index, block in enumerate(function.blocks)}
    # Scalars in declaration-site order: by block position, then by
    # declaration within the block.  The order fixes φ placement, and hence
    # value numbering and every analysis downstream.
    live = [scalar for scalar in scalars.scalars if scalar.block in block_order]
    live.sort(key=lambda scalar: block_order[scalar.block])
    if not live:
        return 0
    with TRACER.span("ir.mem2reg", fn=function.name, scalars=len(live)):
        _construct(function, live, scalars, block_order, DominatorTree(function))
    return len(live)


def _construct(function: Function, live: List[Scalar], scalars: PromotedScalars,
               block_order: Dict[BasicBlock, int], domtree: DominatorTree) -> None:
    for slot, scalar in enumerate(live):
        scalar.slot = slot
    defining: List[List[BasicBlock]] = [[] for _ in live]
    for block, written in scalars.written.items():
        if block in block_order:
            for scalar in written:
                defining[scalar.slot].append(block)  # type: ignore[index]

    # 1. Insert each scalar's φ-functions at the iterated dominance frontier
    #    of its defining blocks, one scalar after the other.  Sets of blocks
    #    hash by identity, so every block set is walked in block order.
    frontiers: Dict[BasicBlock, List[BasicBlock]] = {}
    phis: Dict[BasicBlock, List[Tuple[int, Phi]]] = {}
    for slot, scalar in enumerate(live):
        blocks = defining[slot]
        if not blocks:
            continue
        defining_blocks: Set[BasicBlock] = set(blocks)
        phi_blocks: Set[BasicBlock] = set()
        worklist = sorted(blocks, key=block_order.__getitem__)
        while worklist:
            block = worklist.pop()
            frontier = frontiers.get(block)
            if frontier is None:
                frontier = frontiers[block] = sorted(domtree.dominance_frontier(block),
                                                     key=block_order.__getitem__)
            for frontier_block in frontier:
                if frontier_block in phi_blocks:
                    continue
                phi_blocks.add(frontier_block)
                phi = Phi(scalar.type, "")
                frontier_block.insert(0, phi)
                phis.setdefault(frontier_block, []).append((slot, phi))
                if frontier_block not in defining_blocks:
                    worklist.append(frontier_block)

    # 2. Walk the dominator tree once, carrying the value of every scalar
    #    live out of the parent (None before any write).  A block's live-in
    #    value is its φ if it has one, else its immediate dominator's
    #    live-out; its placeholders take that value, its last writes make
    #    its own live-out, and that feeds the φs of its successors.
    entry = function.entry_block
    assert entry is not None
    successors = domtree.cfg.successors
    stack: List[Tuple[BasicBlock, List[Optional[Value]]]] = [(entry, [None] * len(live))]
    while stack:
        block, current = stack.pop()
        block_phis = phis.get(block)
        written = scalars.written.get(block)
        if block_phis or written:
            current = list(current)
        if block_phis:
            for slot, phi in block_phis:
                current[slot] = phi
        for placeholder in scalars.pending.get(block, ()):
            scalar = placeholder.scalar
            value = current[scalar.slot]  # type: ignore[index]
            placeholder.resolve(value if value is not None else Undef(scalar.type))
        if written:
            for scalar, value in written.items():
                if isinstance(value, Placeholder):
                    # A write of a read made earlier in this block.
                    value = value.value
                    assert value is not None
                current[scalar.slot] = value  # type: ignore[index]
        for succ in successors[block]:
            for slot, phi in phis.get(succ, ()):
                value = current[slot]
                phi.add_incoming(value if value is not None else Undef(phi.type), block)
        children = domtree.children.get(block)
        if children:
            for child in reversed(children):
                stack.append((child, current))
