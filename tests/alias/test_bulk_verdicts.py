"""Differential tests for the bulk verdict paths.

BasicAA and the strict-inequality analysis answer a whole batch of pairs
from per-pointer tables (:meth:`AliasAnalysis.verdict_codes`).  These tests
pin them, pair by pair, to the one-pair rules they replace: BasicAA's codes
to :meth:`BasicAliasAnalysis.alias`, and the LT codes and reasons to the
table-free :func:`~repro.verify.certificate.reference_disambiguate`.
"""

import pytest

from repro.alias import AliasResult, BasicAliasAnalysis, MemoryLocation
from repro.alias.aaeval import collect_memory_locations, collect_pointer_values
from repro.core import (
    DisambiguationReason,
    LessThanAnalysis,
    PointerDisambiguator,
    StrictInequalityAliasAnalysis,
)
from repro.frontend import compile_source
from repro.ir import INT, IRBuilder, Module, NullPointer, pointer_to
from repro.passes import FunctionAnalysisCache
from repro.synth import KERNEL_SOURCES
from repro.synth.csmith import generate_random_module
from repro.synth.workloads import build_testsuite_sources, spec_sources
from repro.verify.certificate import reference_disambiguate

GROUPS = ("spec", "testsuite", "random", "kernels")


def _group_modules(group):
    if group == "spec":
        sources = spec_sources()
    elif group == "testsuite":
        sources = build_testsuite_sources(20)
    elif group == "kernels":
        sources = sorted(KERNEL_SOURCES.items())
    else:
        return [generate_random_module(seed, pointer_depth=2 + seed % 5)
                for seed in range(20)]
    return [compile_source(source, module_name=name) for name, source in sources]


@pytest.fixture(scope="module")
def prepared():
    """``prepared(group, class_limit)``: ``[(module, lt analysis)]`` over
    e-SSA form, the disambiguator built under ``class_limit``; each pair is
    built once per test module."""
    built = {}

    def get(group, class_limit):
        if (group, class_limit) not in built:
            built[(group, class_limit)] = [
                (module, StrictInequalityAliasAnalysis(
                    module,
                    cache=FunctionAnalysisCache(class_limit=class_limit)))
                for module in _group_modules(group)]
        return built[(group, class_limit)]

    return get


def _pairwise_codes(analysis, locations):
    return "".join(analysis.alias(locations[i], locations[j]).code
                   for i in range(len(locations))
                   for j in range(i + 1, len(locations)))


@pytest.mark.parametrize("group", GROUPS)
def test_basicaa_codes_match_pairwise_alias(prepared, group):
    ba = BasicAliasAnalysis()
    pairs = 0
    for module, _lt in prepared(group, 64):
        for function in module.defined_functions():
            locations = collect_memory_locations(function)
            codes = ba.verdict_codes(locations)
            assert codes == _pairwise_codes(ba, locations), function.name
            pairs += len(codes)
    assert pairs > 0


@pytest.mark.parametrize("class_limit", [64, 2], ids=["default-limit", "limit-2"])
@pytest.mark.parametrize("group", GROUPS)
def test_lt_codes_and_reasons_match_reference(prepared, group, class_limit):
    truncated = proven = 0
    for module, lt in prepared(group, class_limit):
        disambiguator = lt.disambiguator
        assert disambiguator.class_limit == class_limit
        lt_sets = lt.analysis.lt_sets
        for function in module.defined_functions():
            pointers = collect_pointer_values(function)
            expected = [reference_disambiguate(pointers[i], pointers[j],
                                               lt_sets, class_limit)
                        for i in range(len(pointers))
                        for j in range(i + 1, len(pointers))]
            reasons = list(disambiguator.disambiguate_pairs(pointers))
            assert [(i, j) for i, j, _reason in reasons] == [
                (i, j) for i in range(len(pointers))
                for j in range(i + 1, len(pointers))]
            assert [reason for _i, _j, reason in reasons] == expected, \
                function.name
            codes = lt.verdict_codes(collect_memory_locations(function))
            assert codes == "".join("N" if reason else "M" for reason in expected)
            proven += sum(1 for reason in expected if reason)
        truncated += disambiguator.statistics.truncated_classes
    assert proven > 0
    if class_limit == 2 and group != "kernels":
        assert truncated > 0


def test_lt_criterion_precedence_and_same_canonical_pointer():
    """Hand-made LT sets: a pair both criteria prove is ``POINTERS_ORDERED``,
    and a pair naming the same canonical pointer is never marked, even when
    the LT sets (unsoundly) order it."""
    module = Module("hand")
    f = module.create_function("f", INT, [pointer_to(INT), INT, INT],
                               ["b", "x1", "x2"])
    b, x1, x2 = f.arguments
    builder = IRBuilder(f.append_block(name="entry"))
    p1 = builder.gep(b, x1, "p1")
    p2 = builder.gep(b, x2, "p2")
    p3 = builder.gep(b, x1, "p3")
    p1copy = builder.copy(p1, "p1copy")
    builder.ret(builder.const(0))
    analysis = LessThanAnalysis(module, build_essa=False)
    analysis.lt_sets = {x2: frozenset({x1}), p2: frozenset({p1}),
                        p1copy: frozenset({p1})}
    pointers = [p1, p2, p3, p1copy]
    disambiguator = PointerDisambiguator(analysis)
    reasons = {(pointers[i].name, pointers[j].name): reason
               for i, j, reason in disambiguator.disambiguate_pairs(pointers)}
    assert reasons == {
        (pointers[i].name, pointers[j].name):
            reference_disambiguate(pointers[i], pointers[j], analysis.lt_sets,
                                   disambiguator.class_limit)
        for i in range(4) for j in range(i + 1, 4)}
    assert reasons[("p1", "p2")] is DisambiguationReason.POINTERS_ORDERED
    assert reasons[("p2", "p3")] is DisambiguationReason.INDICES_ORDERED
    assert reasons[("p1", "p1copy")] is DisambiguationReason.NONE
    assert reasons[("p2", "p1copy")] is DisambiguationReason.POINTERS_ORDERED
    assert disambiguator.statistics.queries == 6


def _position(count, i, j):
    return i * count - i * (i + 1) // 2 + j - i - 1


def _hand_built_locations():
    """One function covering every BasicAA rule."""
    module = Module("hand")
    int_ptr = pointer_to(INT)
    source = module.create_function("source", int_ptr, [], [])
    g = module.add_global(INT, "g")
    f = module.create_function("f", INT, [int_ptr, pointer_to(int_ptr), INT],
                               ["a", "pp", "c"])
    a, pp, c = f.arguments
    builder = IRBuilder(f.append_block(name="entry"))
    stack = builder.alloca(INT, "stack", array_size=builder.const(16))
    other = builder.alloca(INT, "other", array_size=builder.const(4))
    heap = builder.malloc(INT, builder.const(16), "heap")
    s1 = builder.gep(stack, builder.const(1), "s1")
    s2 = builder.gep(stack, builder.const(2), "s2")
    s2b = builder.gep(stack, builder.const(2), "s2b")
    s3 = builder.gep(s2, builder.const(1), "s3")
    s2copy = builder.copy(s2, "s2copy")
    variable = builder.gep(s1, c, "variable")
    nested = builder.gep(variable, builder.const(1), "nested")
    loaded = builder.load(pp, "loaded")
    called = builder.call(source, [], "called")
    a1 = builder.gep(a, builder.const(1), "a1")
    g1 = builder.gep(g, builder.const(1), "g1")
    builder.ret(builder.const(0))
    null = NullPointer(int_ptr)
    locations = [MemoryLocation(pointer) for pointer in (
        a, pp, stack, other, heap, s1, s2, s2b, s3, s2copy, variable, nested,
        loaded, called, a1, g, g1, null)]
    locations += [
        MemoryLocation(s2),                 # the same location twice
        MemoryLocation(s1, size=2),         # overlaps s2: partial alias
        MemoryLocation(s3, size=None),      # unknown size
        MemoryLocation(null),               # the null pointer twice
        MemoryLocation(stack, size=None),
    ]
    return locations


def test_basicaa_hand_built_cases_match_pairwise_alias():
    ba = BasicAliasAnalysis()
    locations = _hand_built_locations()
    codes = ba.verdict_codes(locations)
    assert codes == _pairwise_codes(ba, locations)
    assert set(codes) == {"N", "M", "P", "U"}
    decoded = [verdict for _i, _j, verdict in ba.alias_many(locations)]
    assert decoded == [AliasResult.from_code(code) for code in codes]

    by_name = {}
    for position, location in enumerate(locations):
        key = location.pointer.name if location.size == 1 else None
        by_name.setdefault(key, position)

    def verdict(first, second):
        i, j = sorted((by_name[first], by_name[second]))
        return codes[_position(len(locations), i, j)]

    assert verdict("s2", "s2b") == "U"          # equal constant offsets
    assert verdict("s1", "s2") == "N"           # disjoint windows
    assert verdict("s2", "s2copy") == "U"       # copies are looked through
    assert verdict("s3", "s2") == "N"           # gep of gep: offset 3
    assert verdict("variable", "s1") == "M"     # variable index
    assert verdict("nested", "s3") == "M"       # gep of a variable gep
    assert verdict("stack", "heap") == "N"      # distinct local objects
    assert verdict("stack", "g") == "N"         # local vs global
    assert verdict("stack", "a") == "N"         # local vs argument
    assert verdict("heap", "loaded") == "N"     # local vs load
    assert verdict("other", "called") == "N"    # local vs call result
    assert verdict("g", "a") == "M"             # global vs argument
    assert verdict("loaded", "a1") == "M"       # two escaped sources
    assert verdict("null", "a") == "N"          # null aliases nothing
    assert verdict("g1", "g") == "N"            # constant offsets of a global
    i, j = by_name["s2"], len(locations) - 5   # s2 listed twice
    assert codes[_position(len(locations), i, j)] == "U"
