"""Dominator tree and dominance frontier computation.

Implements the Cooper–Harvey–Kennedy iterative algorithm ("A simple, fast
dominance algorithm").  Dominance is the backbone of SSA construction, of the
e-SSA renaming step (uses dominated by a σ-copy are renamed) and of the
verifier's SSA checks.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.ir.basicblock import BasicBlock
from repro.ir.cfg import ControlFlowGraph, reverse_postorder
from repro.ir.function import Function
from repro.ir.instructions import Instruction, Phi


class DominatorTree:
    """Immediate dominators, dominance queries and dominance frontiers."""

    def __init__(self, function: Function) -> None:
        self.function = function
        self.cfg = ControlFlowGraph(function)
        self.rpo = reverse_postorder(function)
        self._rpo_index: Dict[BasicBlock, int] = {b: i for i, b in enumerate(self.rpo)}
        self.idom: Dict[BasicBlock, Optional[BasicBlock]] = {}
        self.children: Dict[BasicBlock, List[BasicBlock]] = {}
        #: per reachable block, its dominator-tree preorder number and the
        #: last number in its subtree (built by the first dominance query).
        self._subtrees: Optional[Dict[BasicBlock, Tuple[int, int]]] = None
        self._compute_idoms()
        self._compute_children()
        self.frontier: Dict[BasicBlock, Set[BasicBlock]] = self._compute_frontier()

    # -- construction -----------------------------------------------------------
    def _compute_idoms(self) -> None:
        entry = self.function.entry_block
        if entry is None:
            return
        idom: Dict[BasicBlock, Optional[BasicBlock]] = {b: None for b in self.rpo}
        idom[entry] = entry
        changed = True
        while changed:
            changed = False
            for block in self.rpo:
                if block is entry:
                    continue
                processed_preds = [
                    p for p in self.cfg.preds(block)
                    if p in idom and idom.get(p) is not None
                ]
                if not processed_preds:
                    continue
                new_idom = processed_preds[0]
                for pred in processed_preds[1:]:
                    new_idom = self._intersect(pred, new_idom, idom)
                if idom[block] is not new_idom:
                    idom[block] = new_idom
                    changed = True
        # Entry's idom is conventionally None (it has no strict dominator).
        idom[entry] = None
        self.idom = idom

    def _intersect(self, a: BasicBlock, b: BasicBlock,
                   idom: Dict[BasicBlock, Optional[BasicBlock]]) -> BasicBlock:
        finger_a, finger_b = a, b
        while finger_a is not finger_b:
            while self._rpo_index[finger_a] > self._rpo_index[finger_b]:
                parent = idom[finger_a]
                assert parent is not None
                finger_a = parent
            while self._rpo_index[finger_b] > self._rpo_index[finger_a]:
                parent = idom[finger_b]
                assert parent is not None
                finger_b = parent
        return finger_a

    def _compute_children(self) -> None:
        self.children = {block: [] for block in self.rpo}
        for block in self.rpo:
            parent = self.idom.get(block)
            if parent is not None and parent is not block:
                self.children[parent].append(block)

    def _compute_frontier(self) -> Dict[BasicBlock, Set[BasicBlock]]:
        frontier: Dict[BasicBlock, Set[BasicBlock]] = {b: set() for b in self.rpo}
        for block in self.rpo:
            preds = self.cfg.preds(block)
            if len(preds) < 2:
                continue
            for pred in preds:
                runner: Optional[BasicBlock] = pred
                while runner is not None and runner is not self.idom.get(block):
                    frontier.setdefault(runner, set()).add(block)
                    runner = self.idom.get(runner)
        return frontier

    # -- queries -------------------------------------------------------------------
    def immediate_dominator(self, block: BasicBlock) -> Optional[BasicBlock]:
        return self.idom.get(block)

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True if block ``a`` dominates block ``b`` (reflexive).

        Constant time: ``a`` dominates ``b`` exactly when ``b``'s preorder
        number falls in ``a``'s dominator subtree.
        """
        if a is b:
            return True
        if self._subtrees is None:
            self._subtrees = self._number_subtrees()
        subtree = self._subtrees.get(a)
        position = self._subtrees.get(b)
        if subtree is None or position is None:
            return False
        return subtree[0] <= position[0] <= subtree[1]

    def _number_subtrees(self) -> Dict[BasicBlock, Tuple[int, int]]:
        preorder = list(self.dom_tree_preorder())
        sizes: Dict[BasicBlock, int] = {}
        for block in reversed(preorder):
            sizes[block] = 1 + sum(sizes[child] for child in self.children.get(block, ()))
        return {block: (number, number + sizes[block] - 1)
                for number, block in enumerate(preorder)}

    def strictly_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        return a is not b and self.dominates(a, b)

    def dominance_frontier(self, block: BasicBlock) -> Set[BasicBlock]:
        return self.frontier.get(block, set())

    def dom_tree_preorder(self) -> Iterator[BasicBlock]:
        entry = self.function.entry_block
        if entry is None:
            return
        stack = [entry]
        while stack:
            block = stack.pop()
            yield block
            stack.extend(reversed(self.children.get(block, [])))

    # -- instruction-level dominance --------------------------------------------------
    def instruction_dominates(self, a: Instruction, b: Instruction) -> bool:
        """True if instruction ``a`` dominates instruction ``b``.

        φ-functions are treated as executing at the top of their block, in
        parallel; a φ never dominates another instruction of the same block
        position-wise unless it appears earlier in the block's list.
        """
        block_a, block_b = a.parent, b.parent
        if block_a is None or block_b is None:
            raise ValueError("detached instructions have no dominance relation")
        if block_a is not block_b:
            return self.strictly_dominates(block_a, block_b)
        return block_a.instructions.index(a) < block_b.instructions.index(b)

    def value_dominates_use(self, value: Instruction, user: Instruction, operand_index: int) -> bool:
        """SSA dominance of a definition over one particular use.

        For uses inside φ-functions the definition must dominate the *end of
        the corresponding predecessor block*, not the φ itself.
        """
        if isinstance(user, Phi):
            pred = user.incoming_blocks[operand_index]
            def_block = value.parent
            if def_block is None:
                return False
            return self.dominates(def_block, pred)
        return self.instruction_dominates(value, user)
