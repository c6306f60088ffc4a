"""Incremental churn: one edited leaf must not spill into the warm store.

The incremental pipeline (``Session.update_source``) keys persistent
evaluations by call-graph-aware *dependency fingerprints* instead of the
whole-module hash.  This benchmark drives the edit-compile-analyze loop the
scheme exists for: a module of ``N`` leaf functions plus one root caller is
evaluated against a store (cold baseline), then a single leaf is edited and
the module is re-evaluated through ``update_source``.

Gates:

* **containment** — every *untouched* function must hit its
  fingerprint-keyed store entry warm; the warm-hit rate over untouched
  functions must be at least ``REPRO_MIN_WARM_HIT_RATE`` (default 0.95,
  the paper-repro acceptance bar);
* **sparseness** — the cache refresh must classify exactly the edited leaf
  as dirty and migrate every clean function's payloads;
* **determinism** — the incremental verdicts must be bit-identical to a
  cold solve of the edited source in a fresh session.

The fingerprint scope of the ``lt`` spec is *region* (a function plus its
transitive callers), so editing a leaf leaves every other function's key
unchanged — which is precisely what the containment gate measures.
Module-global specs (andersen/steensgaard) deliberately keep module-hash
keying and would miss after any edit; they are exercised by the unit tests,
not gated here.
"""

import os

from harness import full_scale, print_table, write_results

from repro.api import Session, env_float

FUNCTION_COUNT = 20 if full_scale() else 20  # acceptance bar is fixed at 20
SPECS = (("lt",),)
MIN_WARM_HIT_RATE = env_float("REPRO_MIN_WARM_HIT_RATE", 0.95)


def build_churn_source(count: int, leaf_bump: int = 1) -> str:
    """``count - 1`` pointer-bearing leaves plus a root calling all of them.

    Each leaf walks ``v[j] = v[j + k]`` — the paper's strict-inequality
    pattern, so the ``lt`` spec produces a mix of no-alias and may-alias
    verdicts and the bit-identity gate compares real verdict streams, not
    empty ones.  ``leaf_bump`` parameterises the body of ``leaf0`` so the
    edited variant differs from the baseline in exactly one function.
    """
    lines = []
    for index in range(count - 1):
        bump = leaf_bump if index == 0 else index + 1
        lines.append(
            "int leaf{i}(int* v, int n) {{\n"
            "  int j;\n"
            "  for (j = 0; j < n - {stride}; j++) {{\n"
            "    v[j] = v[j + {stride}] + {bump};\n"
            "  }}\n"
            "  return v[0];\n"
            "}}\n".format(i=index, stride=index % 3 + 1, bump=bump))
    calls = "".join("  total = total + leaf{i}(v, n);\n".format(i=index)
                    for index in range(count - 1))
    lines.append(
        "int root(int* v, int n) {\n"
        "  int total = 0;\n" + calls +
        "  if (total < n) { v[total] = total; }\n"
        "  return total;\n"
        "}\n")
    return "\n".join(lines)


def _verdict_map(result):
    verdicts = {}
    for label in result.labels:
        for function_name, codes in result.verdicts(label).items():
            verdicts[(label, function_name)] = codes
    return verdicts


def _fingerprint_counts(session):
    counters = session.cache.statistics.by_kind.get("fingerprint")
    if counters is None:
        return 0, 0
    return counters["hits"], counters["misses"]


def _churn_round(store_path):
    """Cold baseline + one-leaf edit through ``update_source``; returns rows."""
    with Session(store_path=store_path) as session:
        baseline = session.update_source(
            "churn", build_churn_source(FUNCTION_COUNT), SPECS)
        hits_before, misses_before = _fingerprint_counts(session)

        update = session.update_source(
            "churn", build_churn_source(FUNCTION_COUNT, leaf_bump=5), SPECS)
        hits_after, misses_after = _fingerprint_counts(session)

    warm_hits = hits_after - hits_before
    warm_misses = misses_after - misses_before
    untouched = FUNCTION_COUNT - 1
    # Only untouched functions can hit (the edited leaf's fingerprint is
    # new), so the aggregate hit delta is exactly the untouched hit count.
    hit_rate = warm_hits / float(untouched)
    return baseline, update, {
        "functions": FUNCTION_COUNT,
        "dirty": len(update.refresh.dirty),
        "clean": len(update.refresh.clean),
        "migrated": update.refresh.migrated,
        "warm_hits": warm_hits,
        "warm_misses": warm_misses,
        "untouched_hit_rate": round(hit_rate, 4),
    }


def test_incremental_churn_warm_hit_rate(benchmark, tmp_path):
    edited_source = build_churn_source(FUNCTION_COUNT, leaf_bump=5)
    baseline, update, row = _churn_round(str(tmp_path / "churn.sqlite"))
    rows = [row]

    # --- sparseness: exactly the edited leaf is dirty -----------------------
    assert sorted(update.refresh.dirty) == ["leaf0"], row
    assert len(update.refresh.clean) == FUNCTION_COUNT - 1, row

    # --- containment: untouched functions hit the store warm ----------------
    assert row["untouched_hit_rate"] >= MIN_WARM_HIT_RATE, (
        "warm hit rate {} below the {} gate".format(
            row["untouched_hit_rate"], MIN_WARM_HIT_RATE))

    # --- determinism: incremental == cold -----------------------------------
    with Session() as cold_session:
        cold = cold_session.evaluate_source("churn", edited_source, SPECS)
    reference = _verdict_map(cold)
    # The gate must compare real verdict streams: the strict-inequality
    # walk disambiguates some pairs, so the comparison is not vacuous.
    all_codes = "".join(reference.values())
    assert "N" in all_codes and "M" in all_codes, reference
    assert _verdict_map(update.result) == reference, (
        "incremental verdicts differ from cold solve")

    print_table("Incremental churn - one-leaf edit", rows)
    write_results("incremental_churn", rows)

    def run_update_round():
        store_path = str(tmp_path / "churn-bench.sqlite")
        if os.path.exists(store_path):
            os.remove(store_path)
        return _churn_round(store_path)[2]

    benchmark(run_update_round)
