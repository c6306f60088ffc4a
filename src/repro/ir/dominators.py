"""Dominator tree and dominance frontier computation.

Implements the Cooper–Harvey–Kennedy iterative algorithm ("A simple, fast
dominance algorithm").  Dominance is the backbone of SSA construction, of the
e-SSA renaming step (uses dominated by a σ-copy are renamed) and of the
verifier's SSA checks.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.ir.basicblock import BasicBlock
from repro.ir.cfg import ControlFlowGraph, reverse_postorder
from repro.ir.function import Function
from repro.ir.instructions import Instruction, Phi


_EMPTY: FrozenSet[BasicBlock] = frozenset()


class DominatorTree:
    """Immediate dominators, dominance queries and dominance frontiers."""

    def __init__(self, function: Function, cfg: Optional[ControlFlowGraph] = None) -> None:
        self.function = function
        self.cfg = cfg if cfg is not None else ControlFlowGraph(function)
        self.rpo = reverse_postorder(function, self.cfg)
        self._rpo_index: Dict[BasicBlock, int] = {b: i for i, b in enumerate(self.rpo)}
        self.idom: Dict[BasicBlock, Optional[BasicBlock]] = {}
        self.children: Dict[BasicBlock, List[BasicBlock]] = {}
        #: per reachable block, its dominator-tree preorder number and the
        #: last number in its subtree (built by the first dominance query).
        self._subtrees: Optional[Dict[BasicBlock, Tuple[int, int]]] = None
        #: per block, its dominance frontier (built by the first frontier query).
        self._frontier: Optional[Dict[BasicBlock, Set[BasicBlock]]] = None
        self._compute_idoms()
        self._compute_children()

    # -- construction -----------------------------------------------------------
    def _compute_idoms(self) -> None:
        entry = self.function.entry_block
        if entry is None:
            return
        # Only processed blocks have an entry while the iteration runs.
        idom: Dict[BasicBlock, Optional[BasicBlock]] = {entry: entry}
        predecessors = self.cfg.predecessors
        changed = True
        while changed:
            changed = False
            for block in self.rpo:
                if block is entry:
                    continue
                new_idom = None
                for pred in predecessors.get(block, ()):
                    if pred in idom:
                        new_idom = pred if new_idom is None else self._intersect(pred, new_idom, idom)
                if new_idom is not None and idom.get(block) is not new_idom:
                    idom[block] = new_idom
                    changed = True
        # Entry's idom is conventionally None (it has no strict dominator),
        # and so is an unreachable block's.
        idom[entry] = None
        self.idom = {block: idom.get(block) for block in self.rpo}

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
        # Only blocks with children have an entry.
        children: Dict[BasicBlock, List[BasicBlock]] = {}
        for block, parent in self.idom.items():
            if parent is not None and parent is not block:
                kids = children.get(parent)
                if kids is None:
                    children[parent] = [block]
                else:
                    kids.append(block)
        self.children = children

    def _compute_frontier(self) -> Dict[BasicBlock, Set[BasicBlock]]:
        # Only blocks with a non-empty frontier have an entry.
        frontier: Dict[BasicBlock, Set[BasicBlock]] = {}
        idom = self.idom
        for block in self.rpo:
            preds = self.cfg.preds(block)
            if len(preds) < 2:
                continue
            for pred in preds:
                runner: Optional[BasicBlock] = pred
                while runner is not None and runner is not idom.get(block):
                    frontier.setdefault(runner, set()).add(block)
                    runner = idom.get(runner)
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
        preorder = self.dom_tree_preorder()
        numbers = {block: number for number, block in enumerate(preorder)}
        # A subtree's last number is its last child's subtree's last number.
        last: Dict[BasicBlock, int] = {}
        children = self.children
        for block in reversed(preorder):
            kids = children.get(block)
            last[block] = last[kids[-1]] if kids else numbers[block]
        return {block: (numbers[block], last[block]) for block in preorder}

    def strictly_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        return a is not b and self.dominates(a, b)

    def dominance_frontier(self, block: BasicBlock) -> AbstractSet[BasicBlock]:
        if self._frontier is None:
            self._frontier = self._compute_frontier()
        return self._frontier.get(block, _EMPTY)

    def dom_tree_preorder(self) -> List[BasicBlock]:
        entry = self.function.entry_block
        if entry is None:
            return []
        preorder: List[BasicBlock] = []
        children = self.children
        stack = [entry]
        while stack:
            block = stack.pop()
            preorder.append(block)
            kids = children.get(block)
            if kids:
                stack.extend(reversed(kids))
        return preorder

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
