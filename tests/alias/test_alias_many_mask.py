"""Batched chain queries: a lockstep merge of the members' full streams.

Every member answers the whole batch once and :func:`chain_codes` merges
the streams position by position; these tests pin that contract.
"""

from repro.alias import (
    AliasAnalysis,
    AliasAnalysisChain,
    AliasResult,
    BasicAliasAnalysis,
    MemoryLocation,
    evaluate_module,
)
from repro.alias.aaeval import collect_memory_locations
from repro.alias.interface import chain_codes, verdict_codes
from repro.core import StrictInequalityAliasAnalysis
from repro.frontend import compile_source
from repro.passes import FunctionAnalysisCache

SOURCE = """
int work(int *a, int n) {
  int i;
  int local[8];
  for (i = 0; i < n; i++) { a[i] = a[i + 1] + local[i % 8]; }
  return local[0];
}
int main() { return 0; }
"""


class CountingAnalysis(AliasAnalysis):
    """Answers a fixed verdict for chosen pairs; counts every query."""

    def __init__(self, name, resolved_pairs, verdict=AliasResult.NO_ALIAS):
        self.name = name
        self.resolved_pairs = set(resolved_pairs)
        self.verdict = verdict
        self.queried = []

    def alias(self, loc_a, loc_b):
        self.queried.append((loc_a, loc_b))
        key = (loc_a.pointer.name, loc_b.pointer.name)
        if key in self.resolved_pairs:
            return self.verdict
        return AliasResult.MAY_ALIAS


def _work_locations():
    module = compile_source(SOURCE, module_name="mask")
    function = module.get_function("work")
    return module, function, collect_memory_locations(function)


def test_base_alias_many_honours_mask():
    """The base batch covers every unordered pair, each verdict as alias()."""
    _module, _function, locations = _work_locations()
    analysis = BasicAliasAnalysis()
    count = len(locations)
    results = list(analysis.alias_many(locations))
    assert [(i, j) for i, j, _verdict in results] == [
        (i, j) for i in range(count) for j in range(i + 1, count)]
    for i, j, verdict in results:
        assert verdict is analysis.alias(locations[i], locations[j])


def test_chain_skips_pairs_resolved_by_earlier_members():
    """Every member answers each pair once; an earlier definitive answer
    wins the merge, so later members' answers on those pairs are dropped."""
    _module, _function, locations = _work_locations()
    count = len(locations)
    all_pairs = [(i, j) for i in range(count) for j in range(i + 1, count)]
    # The first member resolves every pair involving location 0; the second
    # would call every pair MustAlias.
    resolved = {(locations[0].pointer.name, locations[j].pointer.name)
                for j in range(1, count)}
    everything = {(a.pointer.name, b.pointer.name)
                  for a in locations for b in locations}
    first = CountingAnalysis("first", resolved)
    second = CountingAnalysis("second", everything, AliasResult.MUST_ALIAS)
    chain = AliasAnalysisChain([first, second], name="chain")

    verdicts = list(chain.alias_many(locations))
    assert [(i, j) for i, j, _verdict in verdicts] == all_pairs
    assert len(first.queried) == len(all_pairs)
    assert len(second.queried) == len(all_pairs)
    for i, j, verdict in verdicts:
        expected = (AliasResult.NO_ALIAS if i == 0
                    else AliasResult.MUST_ALIAS)
        assert verdict is expected, (i, j)


def test_chain_mask_verdicts_match_pairwise_alias():
    module, function, locations = _work_locations()
    cache = FunctionAnalysisCache()
    ba = BasicAliasAnalysis()
    lt = StrictInequalityAliasAnalysis(module, cache=cache)
    chain = AliasAnalysisChain([ba, lt], name="ba+lt")
    chain.prepare_function(function)
    batched = list(chain.alias_many(locations))
    for i, j, verdict in batched:
        assert verdict is chain.alias(locations[i], locations[j]), (i, j)


def test_chain_accepts_caller_mask():
    """The chain's stream is the shared :func:`chain_codes` merge of its
    members' code streams — the rule the execution engine applies too."""
    module, function, locations = _work_locations()
    cache = FunctionAnalysisCache()
    ba = BasicAliasAnalysis()
    lt = StrictInequalityAliasAnalysis(module, cache=cache)
    chain = AliasAnalysisChain([ba, lt], name="ba+lt")
    chain.prepare_function(function)
    merged = chain_codes([verdict_codes(ba, locations),
                          verdict_codes(lt, locations)])
    assert verdict_codes(chain, locations) == merged
    assert "N" in merged and "M" in merged


def test_sraa_disambiguate_pairs_subset_matches_full():
    """A batch over a subset of the locations answers its pairs exactly
    like the full batch does."""
    module, function, locations = _work_locations()
    cache = FunctionAnalysisCache()
    lt = StrictInequalityAliasAnalysis(module, cache=cache)
    lt.prepare_function(function)
    full = {(i, j): verdict for i, j, verdict in lt.alias_many(locations)}
    kept = [k for k in range(len(locations)) if k % 2 == 0]
    subset = [locations[k] for k in kept]
    for i, j, verdict in lt.alias_many(subset):
        assert verdict is full[(kept[i], kept[j])]


def test_chain_evaluation_counts_unchanged_by_mask_passing():
    """Whole-module chain evaluation equals member-by-member merging."""
    module, _function, _locations = _work_locations()
    cache = FunctionAnalysisCache()
    ba = BasicAliasAnalysis()
    lt = StrictInequalityAliasAnalysis(module, cache=cache)
    chain = AliasAnalysisChain([ba, lt], name="ba+lt")
    eval_chain = evaluate_module(module, chain)
    eval_ba = evaluate_module(module, ba)
    eval_lt = evaluate_module(module, lt)
    assert eval_chain.total_queries == eval_ba.total_queries == eval_lt.total_queries
    assert eval_chain.no_alias >= max(eval_ba.no_alias, eval_lt.no_alias)
