"""Lossless aggregation of per-shard counters on the coordinator."""

from repro.alias import AliasEvaluation, AliasResult
from repro.core.disambiguation import DisambiguationStatistics
from repro.util.worklist import SolverInfo


def _statistics(queries, truncated, largest, memoized, solver=None):
    statistics = DisambiguationStatistics()
    statistics.queries = queries
    statistics.truncated_classes = truncated
    statistics.largest_class = largest
    statistics.memoized_values = memoized
    if solver is not None:
        statistics.solver = solver
    return statistics


def test_disambiguation_statistics_merge_sums_counters_and_maxes_largest():
    merged = _statistics(10, 1, 5, 3).merge(_statistics(7, 2, 9, 4))
    assert merged.queries == 17
    assert merged.truncated_classes == 3
    assert merged.largest_class == 9  # max, not sum: it is itself a maximum
    assert merged.memoized_values == 7


def test_disambiguation_statistics_merge_is_commutative():
    a = _statistics(3, 0, 12, 1)
    b = _statistics(5, 4, 2, 9)
    assert a.merge(b).as_dict() == b.merge(a).as_dict()


def test_disambiguation_statistics_dict_round_trip():
    original = _statistics(10, 1, 5, 3)
    rebuilt = DisambiguationStatistics.from_dict(original.as_dict())
    assert rebuilt.as_dict() == original.as_dict()
    assert DisambiguationStatistics.from_dict({}).as_dict() == \
        DisambiguationStatistics().as_dict()


def test_disambiguation_statistics_merge_sums_solver_counters():
    a = _statistics(1, 0, 1, 0,
                    solver=SolverInfo(evaluations=40, widenings=3, sccs=9,
                                      cyclic_sccs=2, pops=30))
    b = _statistics(2, 0, 1, 0,
                    solver=SolverInfo(evaluations=15, narrowings=4, sccs=5,
                                      pops=16))
    merged = a.merge(b)
    assert merged.solver.evaluations == 55
    assert merged.solver.widenings == 3
    assert merged.solver.narrowings == 4
    assert merged.solver.sccs == 14
    assert merged.solver.cyclic_sccs == 2
    assert merged.solver.pops == 46
    # The originals are untouched (merge returns a fresh struct).
    assert a.solver.evaluations == 40
    assert b.solver.evaluations == 15


def test_disambiguation_statistics_solver_survives_dict_round_trip():
    original = _statistics(3, 1, 2, 0,
                           solver=SolverInfo(evaluations=7, pops=7))
    rebuilt = DisambiguationStatistics.from_dict(original.as_dict())
    assert rebuilt.solver == original.solver
    # Legacy payloads without the key deserialize to empty counters.
    assert DisambiguationStatistics.from_dict({}).solver == SolverInfo()


def test_alias_evaluation_dict_round_trip():
    evaluation = AliasEvaluation()
    evaluation.no_alias = 4
    evaluation.may_alias = 2
    evaluation.partial_alias = 1
    evaluation.must_alias = 3
    rebuilt = AliasEvaluation.from_dict(evaluation.as_dict())
    assert rebuilt.as_dict() == evaluation.as_dict()
    assert rebuilt.total_queries == 10


def test_alias_result_codes_round_trip():
    for result in AliasResult:
        assert AliasResult.from_code(result.code) is result
    assert len({result.code for result in AliasResult}) == len(list(AliasResult))
