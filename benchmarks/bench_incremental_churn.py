"""Incremental churn: one edited leaf dirties one function and no store.

``Session.update_source`` is the edit-compile-analyze loop: it recompiles
the module, reports which functions' own IR changed, and solves the module
cold (the interprocedural less-than analysis binds every formal to its
callers' actuals, so one constraint system covers the whole module).  This
benchmark drives it over a module of ``N - 1`` leaf functions plus one root
caller: a baseline, then a single leaf edit, in a session with a store.

Gates:

* **sparseness** — the refresh must classify exactly the edited leaf as
  dirty and every other function as clean;
* **no store I/O** — the edit must not read or write the store: its hit and
  miss counters and its entry count are unchanged across the edit (the
  store memoizes whole units from ``run_workload`` only);
* **determinism** — the verdicts must be bit-identical to a cold solve of
  the edited source in a fresh session.
"""

import os

from harness import print_table, write_results

from repro.api import Session

FUNCTION_COUNT = 20
SPECS = (("lt",),)


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


def _store_counts(session):
    store = session.store
    return store.hits, store.misses, len(store)


def _churn_round(store_path):
    """Baseline + one-leaf edit through ``update_source``; returns rows."""
    with Session(store_path=store_path) as session:
        baseline = session.update_source(
            "churn", build_churn_source(FUNCTION_COUNT), SPECS)
        before = _store_counts(session)
        update = session.update_source(
            "churn", build_churn_source(FUNCTION_COUNT, leaf_bump=5), SPECS)
        after = _store_counts(session)
    return baseline, update, {
        "functions": FUNCTION_COUNT,
        "dirty": len(update.refresh.dirty),
        "clean": len(update.refresh.clean),
        "store_hits": after[0] - before[0],
        "store_misses": after[1] - before[1],
        "store_entries": after[2] - before[2],
    }


def test_incremental_churn_one_leaf_edit(benchmark, tmp_path):
    edited_source = build_churn_source(FUNCTION_COUNT, leaf_bump=5)
    baseline, update, row = _churn_round(str(tmp_path / "churn.sqlite"))
    rows = [row]

    # --- sparseness: exactly the edited leaf is dirty -----------------------
    assert sorted(update.refresh.dirty) == ["leaf0"], row
    assert len(update.refresh.clean) == FUNCTION_COUNT - 1, row

    # --- no store I/O across the edit ---------------------------------------
    assert (row["store_hits"], row["store_misses"], row["store_entries"]) \
        == (0, 0, 0), row

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
