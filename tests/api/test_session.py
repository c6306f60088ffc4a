"""Tests for the ``Session`` facade.

Covers the fluent pipeline, cache/store coherence across calls, the
precedence of explicit arguments over config fields over the environment,
and bit-identity between the facade's evaluation entry points.
"""

import os

import pytest

from repro.api import ReproConfig, Session
from repro.api.session import DisambiguationReport
from repro.core.disambiguation import DisambiguationReason

INS_SORT = """
void ins_sort(int* v, int N) {
  int i, j;
  for (i = 0; i < N - 1; i++) {
    for (j = i + 1; j < N; j++) {
      if (v[i] > v[j]) {
        int tmp = v[i];
        v[i] = v[j];
        v[j] = tmp;
      }
    }
  }
}
"""

SPECS = (("basicaa",), ("lt",), ("basicaa", "lt"))


def _verdict_map(result):
    return {(label, function): codes
            for label in result.labels
            for function, codes in result.verdicts(label).items()}


# -- the fluent pipeline -------------------------------------------------------

def test_fluent_compile_analyze_disambiguate():
    report = Session().compile(INS_SORT, name="quickstart") \
        .analyze().disambiguate()
    assert isinstance(report, DisambiguationReport)
    assert report.queries == 21
    assert report.no_alias_count == 12
    reasons = {pair.reason for pair in report.resolved()}
    assert DisambiguationReason.INDICES_ORDERED in reasons
    assert all(pair.function == "ins_sort" for pair in report.pairs)
    assert 0.0 < report.no_alias_ratio < 1.0


def test_pipeline_evaluate_shares_the_session_cache():
    session = Session()
    unit = session.compile(INS_SORT, name="m").analyze()
    before = session.cache.statistics.hits
    unit.evaluate(specs=(("lt",),))
    # The evaluation reuses the analysis state analyze() already built.
    assert session.cache.statistics.hits > before


def test_print_ir_shows_current_form():
    session = Session()
    unit = session.compile(INS_SORT, name="m")
    pre = unit.print_ir()
    unit.analyze()
    post = unit.print_ir()
    assert "sigma" not in pre
    assert "sigma" in post  # e-SSA conversion inserted sigma-copies


# -- equivalence between the evaluation entry points ------------------------

def test_evaluate_source_matches_run_workload():
    with Session() as session:
        single = session.evaluate_source("m", INS_SORT, specs=SPECS,
                                         store=False)
        listed = session.run_workload([("m", INS_SORT)], specs=SPECS,
                                      workers=0, store=False)[0]
    assert _verdict_map(single) == _verdict_map(listed)


# -- cache/store coherence across calls ----------------------------------------

def test_session_store_is_shared_across_calls(tmp_path):
    path = str(tmp_path / "session-store.sqlite")
    with Session(ReproConfig(store_path=path, workers=0)) as session:
        first = session.store
        cold = session.run_workload([("m", INS_SORT)], specs=(("lt",),))
        warm = session.run_workload([("m", INS_SORT)], specs=(("lt",),))
        assert session.store is first  # one handle for the whole session
        assert cold[0].store_misses > 0
        assert warm[0].store_hits > 0
        assert _verdict_map(cold[0]) == _verdict_map(warm[0])
        stats = session.statistics()
        assert stats["store"]["hits"] > 0
        assert stats["store"]["entries"] > 0
    # close() released the handle; a fresh session warm-reads the same file.
    with Session(ReproConfig(store_path=path, workers=0)) as session:
        rewarm = session.run_workload([("m", INS_SORT)], specs=(("lt",),))
        assert rewarm[0].store_hits > 0


def test_store_false_forces_persistence_free_run(tmp_path):
    path = str(tmp_path / "never.sqlite")
    with Session(ReproConfig(store_path=path, workers=0)) as session:
        session.run_workload([("m", INS_SORT)], specs=(("lt",),), store=False)
    assert not os.path.exists(path)


# -- precedence: explicit argument > config > environment ----------------------

def test_explicit_workers_argument_beats_config_and_env(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "2")
    with Session() as session:
        assert session.config.workers == 2  # from the environment
        # The explicit argument wins: serial, in this very process.
        results = session.run_workload([("m", INS_SORT)], specs=(("lt",),),
                                       workers=0, store=False)
        assert results[0].payload["pid"] == os.getpid()


def test_config_workers_field_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "2")
    with Session(ReproConfig(workers=0)) as session:
        results = session.run_workload([("m", INS_SORT)], specs=(("lt",),),
                                       store=False)
        assert results[0].payload["pid"] == os.getpid()


def test_invalid_explicit_workers_argument_raises():
    from repro.api import ConfigError

    with Session() as session:
        with pytest.raises(ConfigError, match="workers"):
            session.run_workload([("m", INS_SORT)], workers=-1)


def test_session_keyword_overrides():
    base = ReproConfig(workers=3)
    session = Session(base, workers=1)
    assert session.config.workers == 1
    assert Session(workers=5).config.workers == 5


def test_report_statistics_are_a_snapshot():
    session = Session()
    unit = session.compile(INS_SORT, name="m").analyze()
    first = unit.disambiguate()
    queries_at_first = first.statistics.queries
    second = unit.disambiguate()
    # Later queries through the same session-cached disambiguator must not
    # retroactively mutate an earlier report.
    assert first.statistics is not second.statistics
    assert first.statistics.queries == queries_at_first
    assert second.statistics.queries == queries_at_first


SHIFT = """
void f(int* v, int N) {
  int i;
  for (i = 0; i < N - 1; i++) {
    v[i] = v[i + 1];
  }
}
"""


def test_disambiguate_twice_reports_per_call_queries():
    unit = Session().compile(SHIFT, name="shift").analyze()
    first = unit.disambiguate()
    second = unit.disambiguate()
    assert first.queries == first.statistics.queries == 3
    # The cached disambiguator has answered six queries by now; the second
    # report still counts only its own three.
    assert second.queries == second.statistics.queries == 3
    assert unit.disambiguator().statistics.queries == 6
    assert [pair.no_alias for pair in first] == [pair.no_alias for pair in second]
