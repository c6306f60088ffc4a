"""End-to-end reproduction of the paper's motivating examples (Figure 1).

These tests compile the exact C snippets of the paper with the mini-C
frontend, run the full analysis pipeline, and check the headline claim: the
accesses ``v[i]`` and ``v[j]`` are disambiguated by the strict-inequality
analysis even though range-based reasoning cannot separate them, and the
basic alias analysis alone fails on them.
"""

from repro.alias import AliasAnalysisChain, AliasResult, BasicAliasAnalysis, MemoryLocation
from repro.alias.aaeval import evaluate_module
from repro.core import LessThanAnalysis, PointerDisambiguator, StrictInequalityAliasAnalysis
from repro.ir.instructions import GetElementPtr, Load, Store
from repro.passes import FunctionAnalysisCache
from repro.synth import KERNEL_SOURCES, kernel_module


def _memory_access_pointers(function):
    """The pointer operands of every load and store, in program order."""
    pointers = []
    for inst in function.instructions():
        if isinstance(inst, Load):
            pointers.append(inst.pointer)
        elif isinstance(inst, Store):
            pointers.append(inst.pointer)
    return pointers


def _gep_pairs_with_distinct_indices(function):
    """All pairs of derived pointers ``v[i]`` / ``v[j]`` with distinct indices."""
    geps = [p for p in _memory_access_pointers(function) if isinstance(p, GetElementPtr)]
    pairs = []
    for i in range(len(geps)):
        for j in range(i + 1, len(geps)):
            if geps[i] is geps[j]:
                continue
            if geps[i].index is geps[j].index:
                continue
            pairs.append((geps[i], geps[j]))
    return pairs


def test_ins_sort_vi_vj_disambiguated():
    module = kernel_module("ins_sort")
    function = module.get_function("ins_sort")
    ba = BasicAliasAnalysis()
    sraa = StrictInequalityAliasAnalysis(module)
    disambiguator = PointerDisambiguator(sraa.analysis)
    pairs = _gep_pairs_with_distinct_indices(function)
    assert pairs, "expected derived-pointer accesses in ins_sort"
    # In the inner loop j starts at i + 1, so i < j throughout: every pair of
    # accesses with distinct indices must be disambiguated by LT...
    lt_hits = sum(1 for a, b in pairs if disambiguator.no_alias(a, b))
    assert lt_hits == len(pairs)
    # ...whereas the basic analysis resolves none of them (same base pointer,
    # variable offsets).
    ba_hits = sum(1 for a, b in pairs if ba.alias_values(a, b) is AliasResult.NO_ALIAS)
    assert ba_hits == 0


def test_partition_vi_vj_disambiguated():
    module = kernel_module("partition")
    function = module.get_function("partition")
    sraa = StrictInequalityAliasAnalysis(module)
    disambiguator = PointerDisambiguator(sraa.analysis)
    pairs = _gep_pairs_with_distinct_indices(function)
    assert pairs
    # The conditional `if (i >= j) break;` guarantees i < j in the swap code,
    # and the two scanning loops only move i up / j down, so the accesses at
    # the swap must be independent.  At least the swap pairs are resolved.
    lt_hits = sum(1 for a, b in pairs if disambiguator.no_alias(a, b))
    assert lt_hits > 0
    ba = BasicAliasAnalysis()
    ba_hits = sum(1 for a, b in pairs if ba.alias_values(a, b) is AliasResult.NO_ALIAS)
    assert lt_hits > ba_hits


def test_copy_reverse_intro_example():
    module = kernel_module("copy_reverse")
    function = module.get_function("copy_reverse")
    sraa = StrictInequalityAliasAnalysis(module)
    loads = [i for i in function.instructions() if isinstance(i, Load)]
    stores = [i for i in function.instructions() if isinstance(i, Store)]
    assert loads and stores
    # The store to v[i] and the load of v[j] never touch the same cell.
    assert sraa.alias(MemoryLocation(stores[0].pointer),
                      MemoryLocation(loads[0].pointer)) is AliasResult.NO_ALIAS


def test_ba_plus_lt_strictly_better_on_figure1_kernels():
    for name in ("ins_sort", "partition", "copy_reverse"):
        module = kernel_module(name)
        ba = BasicAliasAnalysis()
        sraa = StrictInequalityAliasAnalysis(module)
        eval_ba = evaluate_module(module, ba)
        eval_chain = evaluate_module(module, AliasAnalysisChain([ba, sraa]))
        assert eval_chain.no_alias > eval_ba.no_alias, name
        assert eval_chain.total_queries == eval_ba.total_queries


def test_pass_manager_pipeline_runs_all_passes():
    module = kernel_module("ins_sort")
    cache = FunctionAnalysisCache()
    function = module.get_function("ins_sort")
    analysis = cache.lessthan(function)
    assert isinstance(analysis, LessThanAnalysis)
    assert getattr(function, "essa_form", False)
    # The analysis is cached: a second request returns the same object.
    again = cache.lessthan(function)
    assert again is analysis
    assert cache.statistics.by_kind["lessthan"] == {"hits": 1, "misses": 1}


def test_figure1_sources_match_paper_text():
    """Guard against drift: the kernel sources keep the paper's structure."""
    ins_sort = KERNEL_SOURCES["ins_sort"]
    assert "for (j = i + 1; j < N; j++)" in ins_sort
    assert "v[i] = v[j]" in ins_sort
    partition = KERNEL_SOURCES["partition"]
    assert "while (v[i] < p) i++;" in partition
    assert "if (i >= j)" in partition
