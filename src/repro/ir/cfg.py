"""Control-flow graph utilities.

Blocks compute successors from their terminators; this module adds the
derived views that analyses want: cached predecessor maps, reverse postorder,
reachability, and the removal of unreachable blocks after lowering.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function


class ControlFlowGraph:
    """A snapshot of the CFG of a function with cached adjacency."""

    def __init__(self, function: Function) -> None:
        self.function = function
        self.successors: Dict[BasicBlock, List[BasicBlock]] = {}
        self.predecessors: Dict[BasicBlock, List[BasicBlock]] = {}
        for block in function.blocks:
            self.successors[block] = list(block.successors())
            self.predecessors.setdefault(block, [])
        for block in function.blocks:
            for succ in self.successors[block]:
                self.predecessors.setdefault(succ, []).append(block)

    def preds(self, block: BasicBlock) -> List[BasicBlock]:
        return self.predecessors.get(block, [])

    def succs(self, block: BasicBlock) -> List[BasicBlock]:
        return self.successors.get(block, [])

    def edges(self) -> List[tuple]:
        return [(b, s) for b in self.function.blocks for s in self.succs(b)]


def reverse_postorder(function: Function,
                      cfg: Optional[ControlFlowGraph] = None) -> List[BasicBlock]:
    """Blocks in reverse postorder of a DFS from the entry block.

    The DFS keeps an explicit stack of (block, successor iterator) frames and
    visits successors in terminator order, so the order is the one a
    recursive DFS gives, with no recursion-depth limit on long CFGs and no
    self-referencing closure left behind for the cycle collector.
    Unreachable blocks are appended at the end in their textual order so that
    analyses still visit every block.  Successors come from ``cfg`` when
    one is given.
    """
    entry = function.entry_block
    if entry is None:
        return []
    successors_of = cfg.succs if cfg is not None else BasicBlock.successors
    visited: Set[BasicBlock] = {entry}
    postorder: List[BasicBlock] = []
    stack = [(entry, iter(successors_of(entry)))]
    while stack:
        block, successors = stack[-1]
        for succ in successors:
            if succ not in visited:
                visited.add(succ)
                stack.append((succ, iter(successors_of(succ))))
                break
        else:
            stack.pop()
            postorder.append(block)
    order = list(reversed(postorder))
    for block in function.blocks:
        if block not in visited:
            order.append(block)
    return order


def postorder(function: Function) -> List[BasicBlock]:
    return list(reversed(reverse_postorder(function)))


def reachable_blocks(function: Function) -> Set[BasicBlock]:
    """The set of blocks reachable from the entry."""
    entry = function.entry_block
    if entry is None:
        return set()
    seen: Set[BasicBlock] = {entry}
    stack = [entry]
    while stack:
        block = stack.pop()
        for succ in block.successors():
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


def remove_unreachable_blocks(function: Function) -> int:
    """Delete blocks not reachable from the entry.  Returns how many."""
    reachable = reachable_blocks(function)
    dead = [b for b in function.blocks if b not in reachable]
    for block in dead:
        # Fix up phis of reachable successors.
        for succ in block.successors():
            if succ in reachable:
                for phi in succ.phis():
                    phi.remove_incoming(block)
        for inst in list(block.instructions):
            inst.erase_from_parent()
        function.remove_block(block)
    return len(dead)

