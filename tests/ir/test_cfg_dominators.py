"""Tests for CFG utilities and the dominator tree."""

from repro.ir import INT, IRBuilder, Module
from repro.ir.cfg import (
    ControlFlowGraph,
    reachable_blocks,
    remove_unreachable_blocks,
    reverse_postorder,
)
from repro.ir.dominators import DominatorTree
from tests.helpers import build_counting_loop_module, build_diamond_module, build_two_index_loop_module


def test_cfg_successors_and_predecessors():
    module, function = build_diamond_module()
    cfg = ControlFlowGraph(function)
    entry = function.block_by_name("entry")
    then_block = function.block_by_name("then")
    else_block = function.block_by_name("else")
    join = function.block_by_name("join")
    assert set(cfg.succs(entry)) == {then_block, else_block}
    assert cfg.preds(entry) == []
    assert set(cfg.preds(join)) == {then_block, else_block}
    assert len(cfg.edges()) == 4


def test_reverse_postorder_starts_at_entry_and_covers_all_blocks():
    module, function = build_counting_loop_module()
    order = reverse_postorder(function)
    assert order[0] is function.entry_block
    assert set(order) == set(function.blocks)
    # The header must come before the body and the exit.
    names = [b.name for b in order]
    assert names.index("header") < names.index("body")
    assert names.index("header") < names.index("exit")


def test_reachability_and_unreachable_removal():
    module, function = build_diamond_module()
    dead = function.append_block(name="dead")
    IRBuilder(dead).ret(IRBuilder.const(0))
    assert dead not in reachable_blocks(function)
    removed = remove_unreachable_blocks(function)
    assert removed == 1
    assert dead not in function.blocks


def test_remove_unreachable_fixes_phis():
    module, function = build_diamond_module()
    join = function.block_by_name("join")
    then_block = function.block_by_name("then")
    # Make `then` unreachable by redirecting the entry branch to `else` twice.
    entry = function.block_by_name("entry")
    entry.terminator.replace_successor(then_block, function.block_by_name("else"))
    remove_unreachable_blocks(function)
    phi = join.phis()[0]
    assert all(block is not then_block for block in phi.incoming_blocks)



def test_dominator_tree_of_diamond():
    module, function = build_diamond_module()
    domtree = DominatorTree(function)
    entry = function.block_by_name("entry")
    then_block = function.block_by_name("then")
    else_block = function.block_by_name("else")
    join = function.block_by_name("join")
    assert domtree.immediate_dominator(entry) is None
    assert domtree.immediate_dominator(then_block) is entry
    assert domtree.immediate_dominator(else_block) is entry
    assert domtree.immediate_dominator(join) is entry
    assert domtree.dominates(entry, join)
    assert not domtree.dominates(then_block, join)
    assert domtree.strictly_dominates(entry, then_block)
    assert not domtree.strictly_dominates(entry, entry)


def test_dominance_frontier_of_diamond():
    module, function = build_diamond_module()
    domtree = DominatorTree(function)
    then_block = function.block_by_name("then")
    else_block = function.block_by_name("else")
    join = function.block_by_name("join")
    assert domtree.dominance_frontier(then_block) == {join}
    assert domtree.dominance_frontier(else_block) == {join}
    assert domtree.dominance_frontier(join) == set()


def test_dominator_tree_of_loop():
    module, function = build_counting_loop_module()
    domtree = DominatorTree(function)
    entry = function.block_by_name("entry")
    header = function.block_by_name("header")
    body = function.block_by_name("body")
    exit_block = function.block_by_name("exit")
    assert domtree.immediate_dominator(header) is entry
    assert domtree.immediate_dominator(body) is header
    assert domtree.immediate_dominator(exit_block) is header
    # The header is in its own dominance frontier because of the back edge.
    assert header in domtree.dominance_frontier(body)


def test_dom_tree_preorder_visits_every_block_once():
    module, function = build_two_index_loop_module()
    domtree = DominatorTree(function)
    visited = list(domtree.dom_tree_preorder())
    assert len(visited) == len(function.blocks)
    assert len(set(visited)) == len(function.blocks)
    assert visited[0] is function.entry_block


def test_instruction_level_dominance():
    module, function = build_counting_loop_module()
    domtree = DominatorTree(function)
    header = function.block_by_name("header")
    body = function.block_by_name("body")
    phi = header.instructions[0]
    cond = header.instructions[1]
    inc = body.instructions[0]
    assert domtree.instruction_dominates(phi, cond)
    assert not domtree.instruction_dominates(cond, phi)
    assert domtree.instruction_dominates(phi, inc)
    # The increment is used by the phi through the back edge: definition must
    # dominate the end of the incoming block, not the phi itself.
    incoming_index = phi.incoming_blocks.index(body)
    assert domtree.value_dominates_use(inc, phi, incoming_index)


def _recursive_reverse_postorder(function):
    """The reference: the textbook recursive DFS."""
    visited, postorder = set(), []

    def dfs(block):
        visited.add(block)
        for succ in block.successors():
            if succ not in visited:
                dfs(succ)
        postorder.append(block)

    dfs(function.entry_block)
    return (list(reversed(postorder))
            + [block for block in function.blocks if block not in visited])


def _idom_walk_dominates(domtree, a, b):
    """The reference: walk ``b``'s immediate-dominator chain looking for ``a``."""
    runner = b
    while runner is not None:
        if runner is a:
            return True
        runner = domtree.idom.get(runner)
    return False


def _random_functions():
    from repro.synth.csmith import generate_random_module

    for seed in range(12):
        module = generate_random_module(seed)
        for function in module.defined_functions():
            yield function


def test_iterative_reverse_postorder_matches_the_recursive_dfs():
    for function in _random_functions():
        assert reverse_postorder(function) == _recursive_reverse_postorder(function)


def test_constant_time_dominance_matches_the_idom_walk():
    module, function = build_diamond_module()
    dead = function.append_block(name="dead")
    IRBuilder(dead).ret(None)  # unreachable: dominates and is dominated by nothing
    functions = [function] + list(_random_functions())
    for function in functions:
        domtree = DominatorTree(function)
        for a in function.blocks:
            for b in function.blocks:
                assert domtree.dominates(a, b) == _idom_walk_dominates(domtree, a, b)
