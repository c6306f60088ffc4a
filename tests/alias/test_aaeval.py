"""Tests for the aa-eval style evaluation harness."""

from repro.alias import (
    AliasAnalysisChain,
    AliasEvaluation,
    AliasResult,
    BasicAliasAnalysis,
)
from repro.alias.aaeval import collect_pointer_values, evaluate_function, evaluate_module
from repro.core import StrictInequalityAliasAnalysis
from repro.ir import INT, IRBuilder, Module, pointer_to
from tests.helpers import build_two_index_loop_module


def test_collect_pointer_values_includes_args_and_instructions():
    module, function = build_two_index_loop_module()
    pointers = collect_pointer_values(function)
    names = {p.name for p in pointers}
    assert "v" in names
    assert "p_i" in names and "p_j" in names
    # No integer values leak in.
    assert all(p.type.is_pointer() for p in pointers)


def test_evaluation_counts_sum_to_total():
    module, function = build_two_index_loop_module()
    ba = BasicAliasAnalysis()
    evaluation = evaluate_function(function, ba)
    pointers = collect_pointer_values(function)
    expected_pairs = len(pointers) * (len(pointers) - 1) // 2
    assert evaluation.total_queries == expected_pairs
    assert (evaluation.no_alias + evaluation.may_alias +
            evaluation.partial_alias + evaluation.must_alias) == expected_pairs
    assert 0.0 <= evaluation.no_alias_ratio <= 1.0


def test_lt_improves_over_ba_on_pointer_arithmetic_code():
    module, function = build_two_index_loop_module()
    sraa = StrictInequalityAliasAnalysis(module)
    ba = BasicAliasAnalysis()
    chain = AliasAnalysisChain([ba, sraa], name="ba+lt")
    eval_ba = evaluate_module(module, ba)
    eval_chain = evaluate_module(module, chain)
    assert eval_chain.total_queries == eval_ba.total_queries
    assert eval_chain.no_alias > eval_ba.no_alias


def test_merge_and_dict_round_trip():
    a = AliasEvaluation()
    a.record(AliasResult.NO_ALIAS)
    a.record(AliasResult.MAY_ALIAS)
    b = AliasEvaluation()
    b.record(AliasResult.MUST_ALIAS)
    merged = a.merge(b)
    assert merged.total_queries == 3
    assert merged.no_alias == 1 and merged.must_alias == 1
    payload = merged.as_dict()
    assert payload["queries"] == 3
    assert payload["no_alias"] == 1



def test_alias_many_matches_pairwise_queries():
    from repro.alias import collect_memory_locations

    module, function = build_two_index_loop_module()
    sraa = StrictInequalityAliasAnalysis(module)
    chain = AliasAnalysisChain([BasicAliasAnalysis(), sraa], name="ba+lt")
    for analysis in (BasicAliasAnalysis(), sraa, chain):
        batched = evaluate_function(function, analysis)
        locations = collect_memory_locations(function)
        expected = AliasEvaluation()
        for i in range(len(locations)):
            for j in range(i + 1, len(locations)):
                expected.record(analysis.alias(locations[i], locations[j]))
        assert batched.as_dict() == expected.as_dict()


def test_alias_many_iterates_upper_triangle_in_order():
    module, function = build_two_index_loop_module()
    ba = BasicAliasAnalysis()
    ba.prepare_function(function)
    from repro.alias import collect_memory_locations

    locations = collect_memory_locations(function)
    pairs = [(i, j) for i, j, _verdict in ba.alias_many(locations)]
    expected = [(i, j) for i in range(len(locations))
                for j in range(i + 1, len(locations))]
    assert pairs == expected


def test_function_without_pointers_yields_no_queries():
    module = Module("m")
    f = module.create_function("f", INT, [INT], ["x"])
    entry = f.append_block(name="entry")
    IRBuilder(entry).ret(f.arguments[0])
    evaluation = evaluate_function(f, BasicAliasAnalysis())
    assert evaluation.total_queries == 0
    assert evaluation.no_alias_ratio == 0.0
