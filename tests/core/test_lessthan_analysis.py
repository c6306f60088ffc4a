"""End-to-end tests of the less-than analysis on IR programs."""

from repro.core import LessThanAnalysis
from repro.core.lessthan.generation import ConstraintGenerator
from repro.ir import Copy, INT, IRBuilder, Module, pointer_to, verify_function
from tests.helpers import (
    build_counting_loop_module,
    build_diamond_module,
    build_figure3_module,
    build_straightline_module,
    build_two_index_loop_module,
)


def find(function, name):
    value = function.value_by_name(name)
    assert value is not None, "no value named {}".format(name)
    return value


def test_straightline_addition_and_subtraction():
    module, function = build_straightline_module()
    analysis = LessThanAnalysis(module)
    a, b = function.arguments
    c = find(function, "c")          # c = a + b (unknown signs: no relation)
    d = find(function, "d")          # d = c - 1
    assert not analysis.is_less_than(a, c)
    assert analysis.lt(d) == frozenset()
    # The split copy of c knows that d < c' (c's new name).
    split = [i for i in function.instructions() if isinstance(i, Copy) and i.kind == "split"]
    assert len(split) == 1
    assert analysis.is_less_than(d, split[0])


def test_positive_increment_creates_relation():
    module = Module("m")
    f = module.create_function("f", INT, [INT], ["x"])
    entry = f.append_block(name="entry")
    builder = IRBuilder(entry)
    x = f.arguments[0]
    y = builder.add(x, builder.const(1), "y")
    z = builder.add(y, builder.const(5), "z")
    builder.ret(z)
    analysis = LessThanAnalysis(module)
    assert analysis.is_less_than(x, y)
    assert analysis.is_less_than(x, z)
    assert analysis.is_less_than(y, z)
    assert not analysis.is_less_than(z, x)
    assert analysis.ordered(x, z)


def test_zero_or_unknown_increment_creates_no_relation():
    module = Module("m")
    f = module.create_function("f", INT, [INT, INT], ["x", "n"])
    entry = f.append_block(name="entry")
    builder = IRBuilder(entry)
    x, n = f.arguments
    y = builder.add(x, builder.const(0), "y")
    z = builder.add(x, n, "z")
    builder.ret(z)
    analysis = LessThanAnalysis(module)
    assert not analysis.is_less_than(x, y)
    assert not analysis.is_less_than(x, z)


def test_counting_loop_i_less_than_n_inside_body():
    module, function = build_counting_loop_module()
    analysis = LessThanAnalysis(module)
    body = function.block_by_name("body")
    # Inside the body (true branch of i < n), the σ-copy of i is < the σ-copy of n.
    sigma_i = [i for i in body.instructions
               if isinstance(i, Copy) and i.kind == "sigma" and i.sigma_operand_side == "lhs"]
    sigma_n = [i for i in body.instructions
               if isinstance(i, Copy) and i.kind == "sigma" and i.sigma_operand_side == "rhs"]
    assert sigma_i and sigma_n
    assert analysis.is_less_than(sigma_i[0], sigma_n[0])
    # The loop phi itself carries no relation with n (it may reach n at exit).
    i_phi = function.block_by_name("header").phis()[0]
    n = function.arguments[0]
    assert not analysis.is_less_than(i_phi, n)


def test_two_index_loop_orders_gep_indices_and_pointers():
    module, function = build_two_index_loop_module()
    analysis = LessThanAnalysis(module)
    body = function.block_by_name("body")
    geps = [i for i in body.instructions if i.opcode == "gep"]
    p_i, p_j = geps
    # Criterion 2 material: the indices are ordered.
    assert analysis.is_less_than(p_i.index, p_j.index)
    # Criterion 1 material: v < v[j] because j > 0 on the true branch.
    v = function.arguments[0]
    assert analysis.is_less_than(v, p_j)


def test_figure3_key_relations():
    module, function = build_figure3_module()
    analysis = LessThanAnalysis(module)
    x0 = function.arguments[0]
    x1 = find(function, "x1")
    x2 = find(function, "x2")
    x3 = find(function, "x3")
    x4 = find(function, "x4")
    x6 = find(function, "x6")
    assert analysis.is_less_than(x0, x1)      # x1 = x0 + 1
    assert analysis.is_less_than(x0, x2)      # through the phi (both inputs > x0)
    # x3 = x2 + 1 uses the sigma-renamed x2, so the relation is with x0 (and
    # with x2's new name), not with the stale phi name itself.
    assert analysis.is_less_than(x0, x3)
    assert analysis.lt(x4) == frozenset()     # x4 = x2 - 2 learns nothing for x4
    assert analysis.lt(x6) == frozenset()     # phi over unrelated values


def test_diamond_branch_information():
    module, function = build_diamond_module()
    analysis = LessThanAnalysis(module)
    then_block = function.block_by_name("then")
    sigma = {(c.sigma_operand_side, c.sigma_on_true_branch): c
             for c in function.instructions()
             if isinstance(c, Copy) and c.kind == "sigma"}
    a_true = sigma[("lhs", True)]
    b_true = sigma[("rhs", True)]
    a_false = sigma[("lhs", False)]
    b_false = sigma[("rhs", False)]
    # True branch of (a < b): a_t < b_t.
    assert analysis.is_less_than(a_true, b_true)
    # False branch: b <= a, no strict relation either way.
    assert not analysis.is_less_than(a_false, b_false)
    assert not analysis.is_less_than(b_false, a_false)


def test_interprocedural_pseudo_phi_links_arguments():
    module = Module("m")
    callee = module.create_function("callee", INT, [INT, INT], ["lo", "hi"])
    centry = callee.append_block(name="entry")
    cb = IRBuilder(centry)
    lo, hi = callee.arguments
    cb.ret(cb.add(lo, hi))
    caller = module.create_function("caller", INT, [INT], ["x"])
    entry = caller.append_block(name="entry")
    builder = IRBuilder(entry)
    x = caller.arguments[0]
    bigger = builder.add(x, builder.const(10), "bigger")
    builder.call(callee, [x, bigger], "res")
    builder.ret(x)
    analysis = LessThanAnalysis(module)
    # The pseudo-phi binds the callee formal `hi` to the actual arguments of
    # its call sites, so the caller-side fact x < bigger becomes x < hi.
    assert analysis.is_less_than(x, hi)
    assert not analysis.is_less_than(x, lo)
    # A formal without call sites has no pseudo-phi and stays unconstrained.
    fresh_module = Module("fresh")
    g = fresh_module.create_function("g", INT, [INT], ["y"])
    gentry = g.append_block(name="entry")
    IRBuilder(gentry).ret(g.arguments[0])
    uncalled = LessThanAnalysis(fresh_module)
    assert uncalled.lt(g.arguments[0]) == frozenset()


def test_constraint_generation_is_linear_and_covers_all_values():
    module, function = build_two_index_loop_module()
    analysis = LessThanAnalysis(module)
    # One constraint per argument plus one per value-producing instruction.
    producing = sum(1 for i in function.instructions() if i.produces_value())
    assert analysis.constraint_count() == producing + len(function.arguments)
    assert analysis.statistics.constraint_count == analysis.constraint_count()
    assert analysis.statistics.pops_per_constraint >= 1.0



def test_analysis_on_already_converted_function():
    module, function = build_diamond_module()
    first = LessThanAnalysis(module)
    # Running the analysis again on the (already e-SSA) module must not
    # duplicate copies or change the verdicts.
    count = function.instruction_count()
    second = LessThanAnalysis(module)
    assert function.instruction_count() == count
    a, b = function.arguments
    assert first.ordered(a, b) == second.ordered(a, b)
    verify_function(function)
