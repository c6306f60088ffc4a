"""Tests for the engine driver: serial fallback, worker pools, store wiring.

Everything runs through :class:`repro.api.Session`, the engine's only
evaluation entry point.
"""

import pytest

from repro.api import ReproConfig, Session
from repro.engine import AnalysisStore
from repro.frontend import compile_source
from repro.passes import FunctionAnalysisCache

#: a small program with real pointer arithmetic so LT resolves something.
SOURCE = """
int fill(int *a, int n) {
  int i;
  for (i = 0; i < n; i++) { a[i] = i; }
  return 0;
}

int shift(int *v, int n) {
  int i; int s = 0;
  for (i = 0; i < n; i++) { s += v[i] + v[i + 1]; }
  return s;
}

int main() { return 0; }
"""

SPECS = (("basicaa",), ("lt",), ("basicaa", "lt"))
UNITS = [("prog_a", SOURCE), ("prog_b", SOURCE)]


def _labels(results):
    return [result.payload["labels"] for result in results]


@pytest.fixture
def session():
    with Session() as session:
        yield session


def test_serial_run_workload_shape(session):
    results = session.run_workload(UNITS, specs=SPECS, workers=0)
    assert [result.name for result in results] == ["prog_a", "prog_b"]
    for result in results:
        assert sorted(result.labels) == ["basicaa", "basicaa+lt", "lt"]
        chain = result.evaluation("basicaa+lt")
        assert chain.total_queries > 0
        # The chain is at least as precise as either member.
        assert chain.no_alias >= result.evaluation("basicaa").no_alias
        assert chain.no_alias >= result.evaluation("lt").no_alias
        assert "fill" in result.verdicts("lt")


def test_parallel_matches_serial(session):
    serial = session.run_workload(UNITS, specs=SPECS, workers=0)
    parallel = session.run_workload(UNITS, specs=SPECS, workers=2)
    assert _labels(serial) == _labels(parallel)


def test_streaming_driver_preserves_input_order(session):
    # imap_unordered may deliver results in any order; the post-merge sort
    # must restore input order bit-identically to the serial path.
    units = [("unit_{:02d}".format(index), SOURCE) for index in range(6)]
    serial = session.run_workload(units, specs=(("lt",),), workers=0)
    streamed = session.run_workload(units, specs=(("lt",),), workers=3)
    assert [result.name for result in streamed] == [unit[0] for unit in units]
    assert _labels(serial) == _labels(streamed)
    assert [r.verdicts("lt") for r in serial] == [r.verdicts("lt") for r in streamed]


def test_on_result_streams_every_unit(session):
    streamed_names = []
    results = session.run_workload(
        UNITS, specs=(("lt",),), workers=0,
        on_result=lambda result: streamed_names.append(result.name))
    assert sorted(streamed_names) == sorted(result.name for result in results)


def test_on_result_streams_under_a_pool(session):
    streamed_names = []
    results = session.run_workload(
        UNITS, specs=(("lt",),), workers=2,
        on_result=lambda result: streamed_names.append(result.name))
    # Arrival order is scheduler-dependent; coverage is not.
    assert sorted(streamed_names) == sorted(result.name for result in results)
    assert [result.name for result in results] == ["prog_a", "prog_b"]


def test_evaluate_module_parallel_matches_serial(session):
    """One module is one unit: evaluate_source agrees with the same unit
    evaluated inside a pooled workload."""
    serial = session.evaluate_source("prog", SOURCE, specs=SPECS)
    pooled = session.run_workload([("prog", SOURCE), ("other", SOURCE)],
                                  specs=SPECS, workers=2)[0]
    for label in ("basicaa", "lt", "basicaa+lt"):
        assert pooled.verdicts(label) == serial.verdicts(label)
        assert pooled.evaluation(label).as_dict() == serial.evaluation(label).as_dict()
    assert pooled.payload["functions"] == serial.payload["functions"]


def test_evaluate_module_in_process_shares_cache(session):
    module = compile_source(SOURCE, module_name="prog")
    cache = FunctionAnalysisCache()
    first = session.evaluate(module, specs=(("lt",),), cache=cache)
    # Second evaluation over the same cache serves memoized payloads: no new
    # analyses are built, verdicts are unchanged.
    functions_before = cache.cached_functions()
    second = session.evaluate(module, specs=(("lt",),), cache=cache)
    assert cache.cached_functions() == functions_before
    assert second.evaluation("lt").as_dict() == first.evaluation("lt").as_dict()


def test_store_round_trip_serial(session, tmp_path):
    store_path = str(tmp_path / "store.sqlite")
    cold = session.run_workload(UNITS, specs=SPECS, workers=0, store=store_path)
    warm = session.run_workload(UNITS, specs=SPECS, workers=0, store=store_path)
    assert _labels(cold) == _labels(warm)
    # Each unit's name is part of its key: both miss cold, both hit warm.
    assert all((result.store_hits, result.store_misses) == (0, 1)
               for result in cold)
    assert all(result.store_hits > 0 for result in warm)
    assert all(result.store_misses == 0 for result in warm)


def test_store_round_trip_parallel(session, tmp_path):
    store_path = str(tmp_path / "store.sqlite")
    cold = session.run_workload(UNITS, specs=SPECS, workers=2, store=store_path)
    warm = session.run_workload(UNITS, specs=SPECS, workers=2, store=store_path)
    assert _labels(cold) == _labels(warm)
    assert all(result.store_hits > 0 for result in warm)


def test_sharded_run_does_not_poison_whole_unit_memo(session, tmp_path):
    """The unit memo evaluate_source writes holds complete results: a warm
    run answered from it agrees with a store-free run."""
    store_path = str(tmp_path / "store.sqlite")
    session.evaluate_source("prog", SOURCE, specs=SPECS, store=store_path)
    warm = session.run_workload([("prog", SOURCE)], specs=SPECS, workers=0,
                                store=store_path)[0]
    assert (warm.store_hits, warm.store_misses) == (1, 0)  # the unit memo
    reference = session.run_workload([("prog", SOURCE)], specs=SPECS,
                                     workers=0, store=False)[0]
    assert warm.payload["labels"] == reference.payload["labels"]


def test_store_false_disables_env_store(tmp_path, monkeypatch):
    store_path = tmp_path / "env-store.sqlite"
    monkeypatch.setenv("REPRO_STORE", str(store_path))
    with Session() as session:
        results = session.run_workload([("prog_a", SOURCE)],
                                       specs=(("basicaa",),), store=False)
    assert results[0].store_hits == 0
    assert results[0].store_misses == 0
    assert not store_path.exists()


def test_evaluate_module_skips_store_for_converted_modules(tmp_path):
    """``Session.evaluate`` never touches the store, so neither a pristine
    nor an already converted module grows or reads it."""
    store_path = str(tmp_path / "store.sqlite")
    with Session(store_path=store_path) as session:
        store = session.store
        module = compile_source(SOURCE, module_name="prog")
        first = session.evaluate(module, specs=(("lt",),))
        assert any(getattr(f, "essa_form", False)
                   for f in module.defined_functions())
        converted = compile_source(SOURCE, module_name="prog")
        session.evaluate(converted, specs=(("lt",),))  # converts it
        result = session.evaluate(converted, specs=(("lt",),))
        assert (store.hits, store.misses, len(store)) == (0, 0, 0)
        assert (result.store_hits, result.store_misses) == (0, 0)
        assert result.evaluation("lt").as_dict() == first.evaluation("lt").as_dict()


def test_interprocedural_modes_do_not_share_entries(session, tmp_path):
    """Intra- and interprocedural LT produce different facts for the same
    IR; neither the store nor the cache may serve one mode's payloads to
    the other."""
    store_path = str(tmp_path / "store.sqlite")
    session.run_workload([("prog_a", SOURCE)], specs=(("lt",),), workers=0,
                         store=store_path, interprocedural=False)
    cross = session.run_workload([("prog_a", SOURCE)], specs=(("lt",),),
                                 workers=0, store=store_path,
                                 interprocedural=True)[0]
    assert cross.store_hits == 0  # every key family is mode-specific
    reference = session.run_workload([("prog_a", SOURCE)], specs=(("lt",),),
                                     workers=0, store=False,
                                     interprocedural=True)[0]
    assert cross.payload["labels"] == reference.payload["labels"]
    # One in-process cache used under both modes keeps them apart too.
    module = compile_source(SOURCE, module_name="prog_a")
    cache = FunctionAnalysisCache()
    intra = session.evaluate(module, specs=(("lt",),), cache=cache,
                             interprocedural=False)
    inter = session.evaluate(module, specs=(("lt",),), cache=cache,
                             interprocedural=True)
    fresh = session.evaluate(compile_source(SOURCE, module_name="prog_a"),
                             specs=(("lt",),), cache=FunctionAnalysisCache(),
                             interprocedural=True)
    assert inter.evaluation("lt").as_dict() == fresh.evaluation("lt").as_dict()
    assert intra.verdicts("lt") is not None  # both modes evaluated


def test_memoize_evaluations_off_reruns_queries(session):
    """Verdicts are not memoized: a repeat call over the same cache re-runs
    the query loop over the cached analyses and agrees with the first."""
    module = compile_source(SOURCE, module_name="prog")
    cache = FunctionAnalysisCache()
    first = session.evaluate(module, specs=(("lt",),), cache=cache)
    queries = first.statistics.queries
    assert queries > 0
    second = session.evaluate(module, specs=(("lt",),), cache=cache)
    # The query loop ran again (the cached disambiguator's counters
    # accumulate across calls).
    assert second.statistics.queries > queries
    assert second.verdicts("lt") == first.verdicts("lt")
    assert second.evaluation("lt").as_dict() == first.evaluation("lt").as_dict()


def test_each_analysis_answers_each_pair_once(session, monkeypatch):
    """Over DEFAULT_SPECS, basicaa answers each function's pairs in one bulk
    call (its own spec and the basicaa+lt chain share one stream) and lt is
    asked once per pair."""
    from repro.alias import BasicAliasAnalysis
    from repro.alias.aaeval import collect_pointer_values
    from repro.engine import DEFAULT_SPECS

    calls = []
    original = BasicAliasAnalysis.verdict_codes

    def counting_verdict_codes(self, locations):
        calls.append([location.pointer for location in locations])
        return original(self, locations)

    monkeypatch.setattr(BasicAliasAnalysis, "verdict_codes",
                        counting_verdict_codes)
    module = compile_source(SOURCE, module_name="prog")
    pairs = 0
    expected_batches = []
    for function in module.defined_functions():
        pointers = collect_pointer_values(function)
        pairs += len(pointers) * (len(pointers) - 1) // 2
        expected_batches.append([id(pointer) for pointer in pointers])
    assert pairs > 0
    result = session.evaluate(module, specs=DEFAULT_SPECS,
                              cache=FunctionAnalysisCache())
    assert ([[id(pointer) for pointer in batch] for batch in calls]
            == expected_batches)
    assert result.statistics.queries == pairs
    for label in ("basicaa", "lt", "basicaa+lt"):
        assert result.evaluation(label).total_queries == pairs


def test_class_limit_is_part_of_the_unit_key(tmp_path):
    """The class limit changes verdicts, so a store warmed at one limit
    must not answer a run at another."""
    from repro.synth.workloads import spec_sources

    units = spec_sources(["lbm"])
    store_path = str(tmp_path / "store.sqlite")
    with Session(class_limit=64) as session:
        session.run_workload(units, specs=SPECS, workers=0, store=store_path)
        warm = session.run_workload(units, specs=SPECS, workers=0,
                                    store=store_path)[0]
    assert (warm.store_hits, warm.store_misses) == (1, 0)
    with Session(class_limit=1) as session:
        limited = session.run_workload(units, specs=SPECS, workers=0,
                                       store=store_path)[0]
        cold = session.run_workload(units, specs=SPECS, workers=0,
                                    store=False)[0]
    assert (limited.store_hits, limited.store_misses) == (0, 1)
    assert limited.payload["labels"] == cold.payload["labels"]
    assert limited.payload["labels"] != warm.payload["labels"]


def test_store_version_mismatch_recomputes(session, tmp_path):
    store_path = str(tmp_path / "store.sqlite")
    with AnalysisStore(store_path, version="old") as store:
        session.run_workload(UNITS, specs=SPECS, workers=0, store=store)
    with AnalysisStore(store_path, version="new") as store:
        results = session.run_workload(UNITS, specs=SPECS, workers=0,
                                       store=store)
        # The mismatch cleared the store: nothing persisted under "old" may
        # be served.  The first unit recomputes everything; the second may
        # hit — but only entries the *new*-version run just streamed back.
        assert results[0].store_hits == 0
        assert results[0].store_misses > 0


def test_unit_result_statistics_exposed(session):
    results = session.run_workload(UNITS, specs=SPECS, workers=0)
    statistics = results[0].statistics
    assert statistics.queries > 0


def test_env_defaults(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    monkeypatch.delenv("REPRO_STORE", raising=False)
    assert ReproConfig().workers == 0
    assert ReproConfig().store_path is None
    monkeypatch.setenv("REPRO_WORKERS", "3")
    monkeypatch.setenv("REPRO_STORE", "/tmp/some-store.sqlite")
    assert ReproConfig().workers == 3
    assert ReproConfig().store_path == "/tmp/some-store.sqlite"
    # Invalid values fail loudly at the config boundary (no silent fallback).
    from repro.api.config import ConfigError
    monkeypatch.setenv("REPRO_WORKERS", "not-a-number")
    with pytest.raises(ConfigError, match="REPRO_WORKERS"):
        ReproConfig()
    monkeypatch.setenv("REPRO_WORKERS", "-2")
    with pytest.raises(ConfigError, match="REPRO_WORKERS"):
        ReproConfig()


def test_store_budget_env_bounds_growth(tmp_path, monkeypatch):
    """REPRO_STORE_MAX_MB sweeps the store after every write batch."""
    store_path = str(tmp_path / "bounded.sqlite")
    monkeypatch.setenv("REPRO_STORE_MAX_MB", "0.001")  # ~1 KiB
    with Session() as session:
        results = session.run_workload(UNITS, specs=SPECS, workers=0,
                                       store=store_path)
    assert _labels(results)  # evaluation itself is unaffected
    with AnalysisStore(store_path, max_bytes=0) as store:
        assert store.size_bytes() <= 1024
    monkeypatch.delenv("REPRO_STORE_MAX_MB")
    unbounded_path = str(tmp_path / "unbounded.sqlite")
    with Session() as session:
        session.run_workload(UNITS, specs=SPECS, workers=0,
                             store=unbounded_path)
    with AnalysisStore(unbounded_path) as store:
        assert store.size_bytes() > 1024  # same workload, no sweep


def test_env_store_is_honoured(tmp_path, monkeypatch):
    store_path = str(tmp_path / "env-store.sqlite")
    monkeypatch.setenv("REPRO_STORE", store_path)
    with Session() as session:
        cold = session.run_workload([("prog_a", SOURCE)], specs=(("basicaa",),))
        warm = session.run_workload([("prog_a", SOURCE)], specs=(("basicaa",),))
    assert cold[0].store_misses > 0
    assert warm[0].store_hits > 0
    assert _labels(cold) == _labels(warm)


def test_lessthan_stats_job(session):
    results = session.run_workload([("prog_a", SOURCE)],
                                   kind="lessthan-stats", workers=0)
    payload = results[0].payload
    assert payload["constraints"] > 0
    assert payload["worklist_pops"] > 0
    assert payload["instructions"] > 0


def test_unknown_kind_raises(session):
    with pytest.raises(KeyError):
        session.run_workload([("prog_a", SOURCE)], kind="no-such-job",
                             workers=0)


def test_rejects_unbuildable_units(session):
    with pytest.raises(TypeError):
        session.run_workload([42], workers=0)
