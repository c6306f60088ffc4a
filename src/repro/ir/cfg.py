"""Control-flow graph utilities.

Blocks compute successors from their terminators; this module adds the
derived views that analyses want: cached predecessor maps, reverse postorder,
reachability and simple CFG edits (edge splitting), which the e-SSA transform
uses to place σ-copies on critical edges.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Branch, Jump, Phi


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


def reverse_postorder(function: Function) -> List[BasicBlock]:
    """Blocks in reverse postorder of a DFS from the entry block.

    Unreachable blocks are appended at the end in their textual order so that
    analyses still visit every block.
    """
    entry = function.entry_block
    if entry is None:
        return []
    visited: Set[BasicBlock] = set()
    postorder: List[BasicBlock] = []

    def dfs(block: BasicBlock) -> None:
        visited.add(block)
        for succ in block.successors():
            if succ not in visited:
                dfs(succ)
        postorder.append(block)

    dfs(entry)
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


def split_critical_edge(pred: BasicBlock, succ: BasicBlock) -> Optional[BasicBlock]:
    """Insert a new block on the edge ``pred -> succ`` if it is critical.

    An edge is critical when ``pred`` has several successors and ``succ`` has
    several predecessors.  Returns the inserted block, or ``None`` when the
    edge was not critical (in which case nothing is changed).
    """
    if len(pred.successors()) < 2 or len(succ.predecessors()) < 2:
        return None
    function = pred.parent
    if function is None:
        raise ValueError("cannot split an edge of a detached block")
    middle = function.append_block(name=function.next_block_name("split"))
    middle.append(Jump(succ))
    terminator = pred.terminator
    if isinstance(terminator, (Branch, Jump)):
        terminator.replace_successor(succ, middle)
    for phi in succ.phis():
        for i, incoming in enumerate(phi.incoming_blocks):
            if incoming is pred:
                phi.incoming_blocks[i] = middle
    return middle

