"""Tests for the disambiguation criteria (Definition 3.11) and the SRAA pass."""

from repro.alias import AliasAnalysisChain, AliasResult, BasicAliasAnalysis, MemoryLocation
from repro.alias.aaeval import evaluate_function
from repro.core import (
    DisambiguationReason,
    LessThanAnalysis,
    PointerDisambiguator,
    StrictInequalityAliasAnalysis,
)
from repro.ir import INT, IRBuilder, Module, pointer_to
from tests.helpers import build_two_index_loop_module


def build_pointer_walk_module():
    """``while (p < pe) { *p = 0; p = p + 1; }`` — the pointer idiom of §3.6."""
    module = Module("walk")
    int_ptr = pointer_to(INT)
    f = module.create_function("walk", INT, [int_ptr, int_ptr], ["p", "pe"])
    entry = f.append_block(name="entry")
    header = f.append_block(name="header")
    body = f.append_block(name="body")
    exit_block = f.append_block(name="exit")
    builder = IRBuilder(entry)
    p, pe = f.arguments
    builder.jump(header)
    builder.set_insert_point(header)
    cur = builder.phi(int_ptr, "cur")
    cond = builder.icmp_slt(cur, pe, "cond")
    builder.branch(cond, body, exit_block)
    builder.set_insert_point(body)
    builder.store(builder.const(0), cur)
    nxt = builder.gep(cur, builder.const(1), "nxt")
    builder.jump(header)
    cur.add_incoming(p, entry)
    cur.add_incoming(nxt, body)
    builder.set_insert_point(exit_block)
    builder.ret(builder.const(0))
    return module, f


def test_two_index_loop_criterion_two():
    module, function = build_two_index_loop_module()
    analysis = LessThanAnalysis(module)
    disambiguator = PointerDisambiguator(analysis)
    body = function.block_by_name("body")
    p_i, p_j = [i for i in body.instructions if i.opcode == "gep"]
    reason = disambiguator.disambiguate(p_i, p_j)
    assert reason is DisambiguationReason.INDICES_ORDERED
    assert disambiguator.no_alias(p_i, p_j)
    # The base pointer v and v[j] are separated by criterion 1 (v < v[j]).
    v = function.arguments[0]
    assert disambiguator.disambiguate(v, p_j) is DisambiguationReason.POINTERS_ORDERED


def test_pointer_walk_criterion_one():
    module, function = build_pointer_walk_module()
    analysis = LessThanAnalysis(module)
    disambiguator = PointerDisambiguator(analysis)
    body = function.block_by_name("body")
    store_pointer = [i for i in body.instructions if i.opcode == "store"][0].pointer
    pe = function.arguments[1]
    # Inside the loop body, cur < pe, hence *cur cannot touch *pe.
    assert disambiguator.disambiguate(store_pointer, pe) is DisambiguationReason.POINTERS_ORDERED


def test_same_pointer_is_never_disambiguated():
    module, function = build_two_index_loop_module()
    analysis = LessThanAnalysis(module)
    disambiguator = PointerDisambiguator(analysis)
    v = function.arguments[0]
    assert disambiguator.disambiguate(v, v) is DisambiguationReason.NONE


def test_constant_offsets_are_left_to_other_analyses():
    """LT says nothing about p+1 vs p+2 (Section 3.6's explicit non-goal)."""
    module = Module("m")
    int_ptr = pointer_to(INT)
    f = module.create_function("f", INT, [int_ptr], ["p"])
    entry = f.append_block(name="entry")
    builder = IRBuilder(entry)
    p = f.arguments[0]
    p1 = builder.gep(p, builder.const(1), "p1")
    p2 = builder.gep(p, builder.const(2), "p2")
    builder.store(builder.const(0), p1)
    builder.store(builder.const(1), p2)
    builder.ret(builder.const(0))
    analysis = LessThanAnalysis(module)
    disambiguator = PointerDisambiguator(analysis)
    assert disambiguator.disambiguate(p1, p2) is DisambiguationReason.NONE
    # basicaa handles this case instead, and the chain picks it up.
    sraa = StrictInequalityAliasAnalysis(module)
    chain = AliasAnalysisChain([BasicAliasAnalysis(), sraa], name="ba+lt")
    assert chain.alias_values(p1, p2) is AliasResult.NO_ALIAS


def test_sraa_alias_interface_module_level():
    module, function = build_two_index_loop_module()
    sraa = StrictInequalityAliasAnalysis(module)
    body = function.block_by_name("body")
    p_i, p_j = [i for i in body.instructions if i.opcode == "gep"]
    assert sraa.alias_values(p_i, p_j) is AliasResult.NO_ALIAS
    v = function.arguments[0]
    assert sraa.alias_values(v, p_i) is AliasResult.MAY_ALIAS
    assert sraa.analysis is not None


def test_chain_is_at_least_as_precise_as_each_member():
    module, function = build_two_index_loop_module()
    ba = BasicAliasAnalysis()
    sraa = StrictInequalityAliasAnalysis(module)
    chain = AliasAnalysisChain([ba, sraa], name="ba+lt")
    eval_ba = evaluate_function(function, ba)
    eval_lt = evaluate_function(function, sraa)
    eval_chain = evaluate_function(function, chain)
    assert eval_chain.no_alias >= eval_ba.no_alias
    assert eval_chain.no_alias >= eval_lt.no_alias
    assert eval_chain.total_queries == eval_ba.total_queries == eval_lt.total_queries
