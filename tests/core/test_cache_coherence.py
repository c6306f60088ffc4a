"""Cache-coherence suite: cached and uncached pipelines must agree exactly.

The caching subsystem and the batched query engine are pure performance
work: on an unchanged module, the cached pipeline must produce bit-identical
``lt_sets``, disambiguation reasons and ``aa-eval`` verdict counts to the
seed (uncached, pair-by-pair) pipeline.  These tests check that on the
synthetic workloads, plus the invalidation-after-mutation contract.

The e-SSA conversion mutates modules in place, so each pipeline analyses its
own module compiled from the same deterministic source.
"""

from repro.alias import (
    AliasAnalysisChain,
    BasicAliasAnalysis,
    MemoryLocation,
    collect_memory_locations,
    evaluate_function,
    evaluate_module,
)
from repro.alias.aaeval import AliasEvaluation, collect_pointer_values
from repro.core import (
    LessThanAnalysis,
    StrictInequalityAliasAnalysis,
)
from repro.passes import FunctionAnalysisCache
from repro.synth import build_testsuite_programs, spec_benchmarks
from repro.verify.certificate import reference_disambiguate


def _workload_pair():
    """The same small synth workloads, compiled twice (analysis mutates IR)."""
    first = build_testsuite_programs(count=3, base_seed=5)
    second = build_testsuite_programs(count=3, base_seed=5)
    return list(zip(first, second))


def _value_key(value):
    function = getattr(value, "function", None)
    if function is None:
        parent = getattr(value, "parent", None)
        function = parent.parent if parent is not None else None
    return (function.name if function is not None else "", value.name)


def _lt_sets_by_name(analysis):
    by_name = {}
    for value, lt_set in analysis.lt_sets.items():
        by_name[_value_key(value)] = frozenset(_value_key(v) for v in lt_set)
    return by_name


def _reasons_by_name(module, disambiguate):
    reasons = {}
    for function in module.defined_functions():
        pointers = collect_pointer_values(function)
        for i in range(len(pointers)):
            for j in range(i + 1, len(pointers)):
                reason = disambiguate(pointers[i], pointers[j])
                reasons[(function.name, pointers[i].name, pointers[j].name)] = reason
    return reasons


def test_cached_and_uncached_lt_sets_are_identical():
    for cached_program, seed_program in _workload_pair():
        cache = FunctionAnalysisCache()
        cached = cache.module_lessthan(cached_program.module)
        seed = LessThanAnalysis(seed_program.module, build_essa=True,
                                interprocedural=True)
        assert _lt_sets_by_name(cached) == _lt_sets_by_name(seed), \
            cached_program.name


def test_cached_and_uncached_disambiguation_reasons_are_identical():
    for cached_program, seed_program in _workload_pair():
        cache = FunctionAnalysisCache()
        cached_disambiguator = cache.module_disambiguator(cached_program.module)
        seed_analysis = LessThanAnalysis(seed_program.module, build_essa=True,
                                         interprocedural=True)
        limit = cached_disambiguator.class_limit
        cached_reasons = _reasons_by_name(cached_program.module,
                                          cached_disambiguator.disambiguate)
        seed_reasons = _reasons_by_name(
            seed_program.module,
            lambda a, b: reference_disambiguate(a, b, seed_analysis.lt_sets,
                                                limit))
        assert cached_reasons == seed_reasons, cached_program.name


def test_cached_and_uncached_aaeval_counts_are_identical():
    for cached_program, seed_program in _workload_pair():
        cache = FunctionAnalysisCache()
        cached_lt = StrictInequalityAliasAnalysis(cached_program.module, cache=cache)
        seed_lt = StrictInequalityAliasAnalysis(seed_program.module)
        cached_eval = evaluate_module(cached_program.module, cached_lt)
        seed_eval = evaluate_module(seed_program.module, seed_lt)
        assert cached_eval.as_dict() == seed_eval.as_dict(), cached_program.name
        # Chained with BA the counts must agree too.
        cached_chain = AliasAnalysisChain([BasicAliasAnalysis(), cached_lt])
        seed_chain = AliasAnalysisChain([BasicAliasAnalysis(), seed_lt])
        assert (evaluate_module(cached_program.module, cached_chain).as_dict()
                == evaluate_module(seed_program.module, seed_chain).as_dict())


def test_batched_engine_matches_pairwise_queries():
    """The batched evaluation must agree with pair-by-pair alias()."""
    program = spec_benchmarks(["lbm"])[0]
    cache = FunctionAnalysisCache()
    lt = StrictInequalityAliasAnalysis(program.module, cache=cache)
    for function in program.module.defined_functions():
        locations = collect_memory_locations(function)
        batched = evaluate_function(function, lt)
        pairwise = AliasEvaluation()
        for i in range(len(locations)):
            for j in range(i + 1, len(locations)):
                pairwise.record(lt.alias(locations[i], locations[j]))
        assert batched.as_dict() == pairwise.as_dict(), function.name


def test_repeated_cached_evaluation_is_stable():
    program = build_testsuite_programs(count=1, base_seed=9)[0]
    cache = FunctionAnalysisCache()
    lt = StrictInequalityAliasAnalysis(program.module, cache=cache)
    first = evaluate_module(program.module, lt)
    for _ in range(3):
        again = evaluate_module(
            program.module,
            StrictInequalityAliasAnalysis(program.module, cache=cache))
        assert again.as_dict() == first.as_dict()
    # Every repetition after the first hits the cache.
    assert cache.statistics.hits > 0


def test_invalidation_after_mutation_changes_results_coherently():
    """After a mutation + invalidate, cached results match a fresh pipeline."""
    from repro.ir import INT, IRBuilder, Module, pointer_to
    from repro.ir.instructions import GetElementPtr

    module = Module("mut")
    int_ptr = pointer_to(INT)
    function = module.create_function("f", INT, [int_ptr, INT], ["p", "n"])
    entry = function.append_block(name="entry")
    builder = IRBuilder(entry)
    p, n = function.arguments
    q = builder.gep(p, n, "q")
    builder.store(builder.const(1), q)
    builder.ret(builder.const(0))

    cache = FunctionAnalysisCache()
    before = evaluate_module(
        module, StrictInequalityAliasAnalysis(module, cache=cache))

    # Mutation: derive another pointer r = q + n, creating new query pairs.
    r = GetElementPtr(q, n, "r")
    entry.insert(entry.instructions.index(entry.terminator), r)

    cache.invalidate(function)
    after_cached = evaluate_module(
        module, StrictInequalityAliasAnalysis(module, cache=cache))
    after_seed = evaluate_module(module, StrictInequalityAliasAnalysis(module))
    assert after_cached.total_queries > before.total_queries
    assert after_cached.as_dict() == after_seed.as_dict()
