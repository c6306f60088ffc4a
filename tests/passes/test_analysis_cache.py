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


# -- invalidation and refresh ---------------------------------------------------------

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


def test_invalidate_keeps_sibling_function_state():
    module, functions = _compile_chain()
    cache = FunctionAnalysisCache()
    module_level = cache.module_lessthan(module)  # converts to e-SSA first
    ranges = {name: cache.ranges(function) for name, function in functions.items()}
    cache.invalidate(functions["b"])
    # The module solve embeds b's constraints and goes; the other functions'
    # ranges depend on their own IR only and stay.
    assert cache.module_lessthan(module) is not module_level
    assert cache.ranges(functions["b"]) is not ranges["b"]
    for name in ("a", "c", "lone"):
        assert cache.ranges(functions[name]) is ranges[name]


def test_refresh_baseline_reports_everything_dirty():
    module, functions = _compile_chain()
    cache = FunctionAnalysisCache()
    result = cache.refresh(module)
    assert result.dirty == sorted(functions)
    assert result.clean == [] and result.removed == [] and result.migrated == 0


def test_refresh_classifies_and_purges_the_previous_compile():
    module, functions = _compile_chain()
    cache = FunctionAnalysisCache()
    cache.refresh(module)
    cache.module_lessthan(module)
    assert cache.cached_functions() == len(functions)
    edited, new_functions = _compile_chain(
        CHAIN.replace("x = x + 1", "x = x + 5"))
    result = cache.refresh(edited)
    assert result.dirty == ["a"]
    assert result.clean == ["b", "c", "lone"]
    assert result.removed == [] and result.migrated == 0
    # Nothing of the previous compile survives, clean functions included.
    assert cache.cached_functions() == 0
    assert not cache._module_lessthan
    assert set(cache._snapshots["chain"].functions.values()) \
        == set(new_functions.values())


def test_refresh_reports_new_functions_dirty():
    module, _functions = _compile_chain()
    cache = FunctionAnalysisCache()
    cache.refresh(module)
    extended, _ = _compile_chain(CHAIN + "\nint extra(int x) { return a(x); }\n")
    result = cache.refresh(extended)
    assert result.dirty == ["extra"]
    assert result.clean == ["a", "b", "c", "lone"]


def test_refresh_in_place_drops_only_dirty_state():
    module, functions = _compile_chain()
    cache = FunctionAnalysisCache()
    cache.refresh(module)
    ranges = {name: cache.ranges(function) for name, function in functions.items()}
    # Refreshing the *same* compile in place: everything clean, and the
    # state of the current objects stays.
    result = cache.refresh(module)
    assert result.dirty == [] and result.migrated == 0
    for name, function in functions.items():
        assert cache.ranges(function) is ranges[name]
    # The e-SSA conversion rewrites a, b and c in place (lone has no
    # branch); a refresh drops exactly their state and the module solve.
    module_level = cache.module_lessthan(module)
    converted = {name: cache.ranges(function) for name, function in functions.items()}
    result = cache.refresh(module)
    assert result.dirty == ["a", "b", "c"] and result.clean == ["lone"]
    assert cache.module_lessthan(module) is not module_level
    assert cache.ranges(functions["lone"]) is converted["lone"]
    assert cache.ranges(functions["a"]) is not converted["a"]


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
