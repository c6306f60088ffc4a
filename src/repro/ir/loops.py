"""Natural-loop detection.

Loops are where pointer arithmetic matters most: the motivating examples of
the paper are loops walking an array from both ends.  This module identifies
natural loops from back edges in the dominator tree and exposes simple
queries (loop headers, members, nesting depth) used by the synthetic workload
generator and by the examples that reason about loop-carried dependences.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.ir.basicblock import BasicBlock
from repro.ir.cfg import ControlFlowGraph
from repro.ir.dominators import DominatorTree
from repro.ir.function import Function


class Loop:
    """One natural loop: a header plus the set of blocks that reach it."""

    def __init__(self, header: BasicBlock) -> None:
        self.header = header
        self.blocks: Set[BasicBlock] = {header}
        self.parent: Optional["Loop"] = None
        self.children: List["Loop"] = []

    def contains(self, block: BasicBlock) -> bool:
        return block in self.blocks

    def depth(self) -> int:
        depth = 1
        current = self.parent
        while current is not None:
            depth += 1
            current = current.parent
        return depth

    def latches(self, cfg: ControlFlowGraph) -> List[BasicBlock]:
        """Blocks inside the loop that branch back to the header."""
        return [b for b in cfg.preds(self.header) if b in self.blocks]

    def exit_blocks(self, cfg: ControlFlowGraph) -> List[BasicBlock]:
        """Blocks outside the loop that are successors of loop blocks."""
        exits: List[BasicBlock] = []
        for block in self.blocks:
            for succ in cfg.succs(block):
                if succ not in self.blocks and succ not in exits:
                    exits.append(succ)
        return exits

    def __repr__(self) -> str:
        return "<Loop header={} blocks={}>".format(self.header.name, len(self.blocks))


class LoopInfo:
    """All natural loops of a function, with nesting structure."""

    def __init__(self, function: Function) -> None:
        self.function = function
        self.cfg = ControlFlowGraph(function)
        self.domtree = DominatorTree(function)
        self.loops: List[Loop] = []
        self._loop_of_header: Dict[BasicBlock, Loop] = {}
        self._discover_loops()
        self._build_nesting()

    def _discover_loops(self) -> None:
        # A back edge is an edge b -> h where h dominates b.
        for block in self.function.blocks:
            for succ in block.successors():
                if self.domtree.dominates(succ, block):
                    loop = self._loop_of_header.get(succ)
                    if loop is None:
                        loop = Loop(succ)
                        self._loop_of_header[succ] = loop
                        self.loops.append(loop)
                    self._collect_body(loop, block)

    def _collect_body(self, loop: Loop, latch: BasicBlock) -> None:
        """Add to ``loop`` every block that can reach ``latch`` without going
        through the header (the standard natural-loop body computation)."""
        stack = [latch]
        while stack:
            block = stack.pop()
            if block in loop.blocks:
                continue
            loop.blocks.add(block)
            for pred in self.cfg.preds(block):
                if pred not in loop.blocks:
                    stack.append(pred)

    def _build_nesting(self) -> None:
        # Order loops by size; a loop is nested in the smallest loop that
        # strictly contains its header and all of its blocks.
        by_size = sorted(self.loops, key=lambda l: len(l.blocks))
        for inner in by_size:
            for outer in by_size:
                if outer is inner:
                    continue
                if len(outer.blocks) <= len(inner.blocks):
                    continue
                if inner.blocks <= outer.blocks:
                    inner.parent = outer
                    outer.children.append(inner)
                    break

    # -- queries ------------------------------------------------------------------
    def innermost_loop_containing(self, block: BasicBlock) -> Optional[Loop]:
        best: Optional[Loop] = None
        for loop in self.loops:
            if loop.contains(block):
                if best is None or len(loop.blocks) < len(best.blocks):
                    best = loop
        return best

    def loop_depth(self, block: BasicBlock) -> int:
        loop = self.innermost_loop_containing(block)
        return loop.depth() if loop is not None else 0

    def headers(self) -> List[BasicBlock]:
        return [loop.header for loop in self.loops]

    def __len__(self) -> int:
        return len(self.loops)
