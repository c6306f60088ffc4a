"""``Session.update_source``: the incremental edit-compile-analyze loop.

The contract under test is *determinism first*: whatever the refresh layer
migrates and the solver reuses, the verdict stream of an incremental update
must be bit-identical to a cold solve of the same source — serially and
against a sharded (``REPRO_WORKERS=2``) cold run — and the incremental
state must not pin earlier compiles.
"""

import gc
from types import FunctionType, ModuleType

import pytest

from repro.api import Session, UpdateResult
from repro.rangeanalysis import RangeAnalysis

BASE = """
int a(int* v, int n) {
  int i;
  for (i = 0; i < n - 1; i++) { v[i] = v[i + 1] + 1; }
  return v[0];
}
int b(int* v, int n) {
  int y = a(v, n);
  if (y < n) { v[y] = y + 2; }
  return v[y];
}
int c(int* v, int n) {
  int z = b(v, n);
  if (z < 30) { z = z + 3; }
  return z;
}
int lone(int* p, int n) {
  int q = p[0];
  if (q < n) { p[q] = q + 1; }
  return p[q];
}
"""

EDITED = BASE.replace("v[i + 1] + 1", "v[i + 1] + 5")

SPECS = (("lt",), ("basicaa", "lt"))


def _verdicts(result):
    verdicts = {}
    for label in result.labels:
        for function_name, codes in result.verdicts(label).items():
            verdicts[(label, function_name)] = codes
    return verdicts


# FIFO is the one worklist order the solvers pop in.
@pytest.mark.parametrize("order", ["fifo"])
def test_update_source_matches_cold_solve(order):
    with Session() as session:
        session.update_source("m", BASE, SPECS)
        update = session.update_source("m", EDITED, SPECS)
    assert isinstance(update, UpdateResult)
    assert update.refresh.dirty == ["a"]
    with Session() as cold_session:
        cold = cold_session.evaluate_source("m", EDITED, SPECS)
    assert _verdicts(update.result) == _verdicts(cold)


def test_update_source_matches_sharded_cold_solve():
    with Session() as session:
        session.update_source("m", BASE, SPECS)
        update = session.update_source("m", EDITED, SPECS)
    with Session(workers=2) as pooled_session:
        pooled = pooled_session.run_workload(
            [("m", EDITED), ("base", BASE)], specs=SPECS)[0]
    assert _verdicts(update.result) == _verdicts(pooled)


def test_update_source_repeated_edits_stay_consistent():
    sources = [BASE, EDITED, EDITED.replace("y + 2", "y + 4"), BASE]
    with Session() as session:
        for source in sources:
            update = session.update_source("m", source, SPECS)
            with Session() as cold_session:
                cold = cold_session.evaluate_source("m", source, SPECS)
            assert _verdicts(update.result) == _verdicts(cold)
    # Refresh diffs against the *previous* update: reverting to BASE undoes
    # the edits to a (second source) and b (third source).
    assert update.refresh.dirty == ["a", "b"]


def _reachable_analyses(root):
    """Every :class:`RangeAnalysis` reachable from ``root``'s own state.

    Classes, modules and functions are not followed: through them
    everything in the process is reachable.
    """
    seen = {id(root)}
    stack = [root]
    found = []
    while stack:
        for child in gc.get_referents(stack.pop()):
            if (id(child) in seen
                    or isinstance(child, (type, ModuleType, FunctionType))):
                continue
            seen.add(id(child))
            if isinstance(child, RangeAnalysis):
                found.append(child)
            stack.append(child)
    return found


def test_update_source_does_not_chain_earlier_analyses():
    sources = [BASE, EDITED, EDITED.replace("y + 2", "y + 4"), BASE,
               EDITED, BASE.replace("z + 3", "z + 6")]
    with Session() as session:
        for source in sources:
            session.update_source("m", source, SPECS)
        cache = session.cache
        cached = list(cache._ranges.values()) + list(cache._pre_ranges.values())
        assert cached
        for analysis in cached:
            module = analysis.function.parent
            for other in _reachable_analyses(analysis):
                assert other.function.parent is module, (
                    "{} holds an analysis of an earlier compile".format(
                        analysis.function.name))


def test_update_source_hits_the_store_warm(tmp_path):
    store_path = str(tmp_path / "store.sqlite")
    with Session(store_path=store_path) as session:
        session.update_source("m", BASE, (("lt",),))
        before = dict(session.cache.statistics.by_kind["fingerprint"])
        update = session.update_source("m", EDITED, (("lt",),))
        after = session.cache.statistics.by_kind["fingerprint"]
    # lt is region-scoped: the three untouched functions (b, c, lone) hit
    # their fingerprint-keyed entries; only the edited leaf misses.
    assert after["hits"] - before["hits"] == 3
    assert after["misses"] - before["misses"] == 1
    assert update.refresh.migrated >= 3


def test_update_result_repr_mentions_blast_radius():
    with Session() as session:
        session.update_source("m", BASE, (("lt",),))
        update = session.update_source("m", EDITED, (("lt",),))
    text = repr(update)
    assert "dirty=1" in text and "clean=3" in text


def test_stats_cli_reports_fingerprint_section(tmp_path, capsys):
    from repro.api.cli import main

    source_file = tmp_path / "m.c"
    source_file.write_text(BASE)
    assert main(["stats", str(source_file)]) == 0
    out = capsys.readouterr().out
    assert "[fingerprints]" in out
    assert "call_edges" in out
