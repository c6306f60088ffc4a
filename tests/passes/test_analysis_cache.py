"""Unit tests for :class:`repro.passes.FunctionAnalysisCache`."""

from repro.core import LessThanAnalysis, StrictInequalityAliasAnalysis
from repro.ir.instructions import BinaryOp
from repro.passes import FunctionAnalysisCache
from tests.helpers import build_two_index_loop_module


def test_ensure_essa_converts_once_and_hits_afterwards():
    module, function = build_two_index_loop_module()
    cache = FunctionAnalysisCache()
    assert not getattr(function, "essa_form", False)
    cache.ensure_essa(function)
    assert function.essa_form
    misses = cache.statistics.misses
    cache.ensure_essa(function)
    cache.ensure_essa(function)
    assert cache.statistics.misses == misses
    assert cache.statistics.hits >= 2


def test_ranges_and_lessthan_are_memoized_by_identity():
    module, function = build_two_index_loop_module()
    cache = FunctionAnalysisCache()
    ranges_a = cache.ranges(function)
    ranges_b = cache.ranges(function)
    assert ranges_a is ranges_b
    lt_a = cache.module_lessthan(module)
    lt_b = cache.module_lessthan(module)
    assert lt_a is lt_b
    # The cached LessThanAnalysis pulls its range analysis from the cache.
    assert lt_a.ranges[function] is cache.ranges(function)


def test_module_lessthan_keyed_on_interprocedural_flag():
    module, function = build_two_index_loop_module()
    cache = FunctionAnalysisCache()
    intra = cache.module_lessthan(module, interprocedural=False)
    inter = cache.module_lessthan(module, interprocedural=True)
    assert intra is not inter
    assert cache.module_lessthan(module, interprocedural=True) is inter
    # Both share the same per-function range analysis.
    assert intra.ranges[function] is inter.ranges[function]


def test_disambiguators_are_shared():
    module, function = build_two_index_loop_module()
    cache = FunctionAnalysisCache()
    d1 = cache.module_disambiguator(module)
    d2 = cache.module_disambiguator(module)
    assert d1 is d2
    assert d1.analysis is cache.module_lessthan(module)


def test_sraa_instances_share_cached_state():
    module, function = build_two_index_loop_module()
    cache = FunctionAnalysisCache()
    first = StrictInequalityAliasAnalysis(module, cache=cache)
    second = StrictInequalityAliasAnalysis(module, cache=cache)
    assert first.analysis is second.analysis
    assert first.disambiguator is second.disambiguator


def test_invalidate_function_drops_function_and_module_entries():
    module, function = build_two_index_loop_module()
    cache = FunctionAnalysisCache()
    module_level = cache.module_lessthan(module)
    disambiguator = cache.module_disambiguator(module)
    ranges = cache.ranges(function)
    cache.invalidate(function)
    assert cache.ranges(function) is not ranges
    assert cache.module_lessthan(module) is not module_level
    assert cache.module_disambiguator(module) is not disambiguator
    assert cache.statistics.invalidations == 1


def test_invalidation_after_mutation_recomputes_fresh_results():
    module, function = build_two_index_loop_module()
    cache = FunctionAnalysisCache()
    before = cache.module_lessthan(module)
    constraints_before = before.constraint_count()
    # Mutate the IR: a new subtraction in the body adds a less-than
    # constraint (x - 1 < x).
    body = function.block_by_name("body")
    i_phi = function.value_by_name("i")
    extra = BinaryOp("sub", i_phi, function.value_by_name("inext").operands[1], "extra")
    body.insert(len(body.instructions) - 1, extra)
    # Without invalidation the cache (by contract) still returns stale state.
    assert cache.module_lessthan(module) is before
    cache.invalidate(function)
    after = cache.module_lessthan(module)
    assert after is not before
    assert after.constraint_count() > constraints_before


def test_invalidate_all_clears_everything():
    module, function = build_two_index_loop_module()
    cache = FunctionAnalysisCache()
    cache.module_lessthan(module)
    cache.invalidate()
    assert cache.cached_functions() == 0


def test_cache_statistics_dict():
    module, function = build_two_index_loop_module()
    cache = FunctionAnalysisCache()
    cache.ranges(function)
    cache.ranges(function)
    payload = cache.statistics.as_dict()
    assert payload["misses"] >= 1
    assert payload["hits"] >= 1
    assert 0.0 <= payload["hit_ratio"] <= 1.0


def test_evaluation_payloads_round_trip():
    module, function = build_two_index_loop_module()
    cache = FunctionAnalysisCache()
    assert cache.get_evaluation(function, "lt") is None
    payload = {"counts": {"no_alias": 1}, "codes": "N"}
    cache.put_evaluation(function, "lt", payload)
    assert cache.get_evaluation(function, "lt") is payload
    assert cache.get_evaluation(function, "basicaa") is None
    assert cache.evaluation_count() == 1


def test_evaluation_payloads_survive_essa_conversion():
    # Payloads are content-addressed against pre-conversion IR by the engine
    # and describe the post-pipeline result, so the cache's own conversion
    # must not drop them.
    module, function = build_two_index_loop_module()
    cache = FunctionAnalysisCache()
    cache.put_evaluation(function, "lt", {"codes": "N"})
    cache.ensure_essa(function)
    assert cache.get_evaluation(function, "lt") == {"codes": "N"}


def test_invalidate_drops_evaluation_payloads():
    module, function = build_two_index_loop_module()
    cache = FunctionAnalysisCache()
    cache.put_evaluation(function, "lt", {"codes": "N"})
    cache.invalidate(function)
    assert cache.get_evaluation(function, "lt") is None
    cache.put_evaluation(function, "basicaa", {"codes": "M"})
    cache.invalidate()
    assert cache.evaluation_count() == 0


# -- call-graph-scoped invalidation and refresh ------------------------------------

CHAIN = """
int a(int x) { if (x < 10) { x = x + 1; } return x; }
int b(int x) { int y = a(x); if (y < 20) { y = y + 2; } return y; }
int c(int x) { int z = b(x); if (z < 30) { z = z + 3; } return z; }
int lone(int x) { return x + 7; }
"""


def _compile_chain(source=CHAIN):
    from repro.frontend import compile_source

    module = compile_source(source, module_name="chain")
    return module, {f.name: f for f in module.defined_functions()}


def test_invalidate_scopes_sibling_payloads_by_reachability():
    module, functions = _compile_chain()
    cache = FunctionAnalysisCache()
    for name in functions:
        cache.put_evaluation(functions[name], "lt", {"codes": name})
    cache.invalidate(functions["b"])
    # b's transitive callers (c) and callees (a) are coupled to the edit...
    assert cache.get_evaluation(functions["b"], "lt") is None
    assert cache.get_evaluation(functions["a"], "lt") is None
    assert cache.get_evaluation(functions["c"], "lt") is None
    # ...but an unreachable sibling keeps its payload.
    assert cache.get_evaluation(functions["lone"], "lt") == {"codes": "lone"}


def test_drop_one_evaluation_keeps_other_labels():
    module, functions = _compile_chain()
    cache = FunctionAnalysisCache()
    cache.put_evaluation(functions["a"], "lt", {"codes": "N"})
    cache.put_evaluation(functions["a"], "basicaa", {"codes": "M"})
    cache._drop_one_evaluation(functions["a"], "lt")
    assert cache.get_evaluation(functions["a"], "lt") is None
    assert cache.get_evaluation(functions["a"], "basicaa") == {"codes": "M"}
    # The per-function index stays consistent: a full drop removes the rest.
    cache._drop_function_evaluations(functions["a"])
    assert cache.evaluation_count() == 0
    assert functions["a"] not in cache._function_evaluations


def test_refresh_baseline_reports_everything_dirty():
    module, functions = _compile_chain()
    cache = FunctionAnalysisCache()
    result = cache.refresh(module)
    assert result.dirty == sorted(functions)
    assert result.clean == [] and result.removed == [] and result.migrated == 0


def test_refresh_migrates_clean_payloads_across_recompiles():
    module, functions = _compile_chain()
    cache = FunctionAnalysisCache()
    cache.refresh(module)
    for name in functions:
        cache.put_evaluation(functions[name], "lt", {"codes": name})
    edited, new_functions = _compile_chain(
        CHAIN.replace("x = x + 1", "x = x + 5"))
    result = cache.refresh(edited)
    assert result.dirty == ["a"]
    assert sorted(result.clean) == ["b", "c", "lone"]
    # lt is region-scoped (function + transitive callers); editing the leaf
    # a leaves the regions of b, c and lone unchanged, so all three migrate.
    assert result.migrated == 3
    for name in ("b", "c", "lone"):
        assert cache.get_evaluation(new_functions[name], "lt") == {"codes": name}
    assert cache.get_evaluation(new_functions["a"], "lt") is None


def test_refresh_region_scope_blocks_caller_edits():
    # Editing the root c changes the regions of its transitive callees
    # (facts flow caller -> callee), so their region-scoped payloads must
    # NOT migrate even though their own IR is unchanged.
    module, functions = _compile_chain()
    cache = FunctionAnalysisCache()
    cache.refresh(module)
    for name in functions:
        cache.put_evaluation(functions[name], "lt", {"codes": name})
    edited, new_functions = _compile_chain(CHAIN.replace("z + 3", "z + 9"))
    result = cache.refresh(edited)
    assert result.dirty == ["c"]
    assert result.migrated == 1  # lone only
    assert cache.get_evaluation(new_functions["lone"], "lt") == {"codes": "lone"}
    for name in ("a", "b"):
        assert cache.get_evaluation(new_functions[name], "lt") is None


def test_refresh_module_scope_requires_identical_module():
    module, functions = _compile_chain()
    cache = FunctionAnalysisCache()
    cache.refresh(module)
    for name in functions:
        cache.put_evaluation(functions[name], "andersen", {"codes": name})
    # Byte-identical recompile: module-scoped payloads migrate.
    same, same_functions = _compile_chain()
    assert cache.refresh(same).migrated == len(functions)
    # Any edit: module-scoped payloads die everywhere.
    edited, new_functions = _compile_chain(
        CHAIN.replace("x = x + 1", "x = x + 5"))
    for name in same_functions:
        cache.put_evaluation(same_functions[name], "andersen", {"codes": name})
    result = cache.refresh(edited)
    assert result.migrated == 0
    for name in new_functions:
        assert cache.get_evaluation(new_functions[name], "andersen") is None


def test_refresh_in_place_drops_only_dirty_state():
    module, functions = _compile_chain()
    cache = FunctionAnalysisCache()
    cache.refresh(module)
    for name in functions:
        cache.put_evaluation(functions[name], "lt", {"codes": name})
    # Refreshing the *same* compile in place: everything clean, payloads
    # stay on their (current) objects without double-migration.
    result = cache.refresh(module)
    assert result.dirty == [] and result.migrated == 0
    for name in functions:
        assert cache.get_evaluation(functions[name], "lt") == {"codes": name}


def test_refresh_reports_removed_functions():
    module, functions = _compile_chain()
    cache = FunctionAnalysisCache()
    cache.refresh(module)
    shrunk_source = CHAIN.replace(
        "int lone(int x) { return x + 7; }", "")
    shrunk, _ = _compile_chain(shrunk_source)
    result = cache.refresh(shrunk)
    assert result.removed == ["lone"]
    assert result.dirty == []
