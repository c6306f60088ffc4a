"""Figure 11 — scalability: constraints grow linearly with program size.

The paper relates, for its 50 largest benchmarks, the number of instructions
of each program with the number of less-than constraints generated for it,
reporting a coefficient of determination (R^2) of 0.992; it further reports
that constraint solving behaves linearly in practice because each constraint
is popped from the worklist about 2.12 times before the fixed point.

This harness reproduces both measurements on the synthetic test-suite-like
programs via the engine's ``lessthan-stats`` job, driven through the
:class:`repro.api.Session` facade — one work unit per program, fanned out
over the configured worker processes (``REPRO_WORKERS``) when set — and
prints one row per program (instructions, constraints, worklist pops) plus
the aggregate R^2 and the pops-per-constraint ratio.  Expected shape: R^2
very close to 1.0 and a small constant pops-per-constraint ratio (well
below 4).
"""

from harness import full_scale, print_table, write_results

from repro.api import Session
from repro.core import LessThanAnalysis
from repro.frontend import compile_source
from repro.synth import build_testsuite_sources
from repro.util import coefficient_of_determination

PROGRAM_COUNT = 50 if full_scale() else 20


def _row(result):
    return {
        "benchmark": result.name,
        "instructions": result["instructions"],
        "constraints": result["constraints"],
        "worklist_pops": result["worklist_pops"],
        "pops_per_constraint": round(result["pops_per_constraint"], 3),
        "solve_seconds": round(result["solve_seconds"], 5),
    }


def test_figure11_constraints_linear_in_instructions(benchmark):
    sources = build_testsuite_sources(count=PROGRAM_COUNT, base_seed=11)
    with Session() as session:
        results = session.run_workload(sources, kind="lessthan-stats")

    rows = [_row(result) for result in results]
    # Present the rows smallest-to-largest, as the paper's figure does.
    rows.sort(key=lambda row: row["instructions"])

    largest = max(results, key=lambda result: result["instructions"])
    largest_source = next(source for name, source in sources if name == largest.name)
    largest_module = compile_source(largest_source, module_name=largest.name)
    # Convert once (untimed) so the timed analysis below runs on the same
    # e-SSA form the per-program measurements saw.
    LessThanAnalysis(largest_module, build_essa=True)
    benchmark(lambda: LessThanAnalysis(largest_module, build_essa=False))

    instructions = [row["instructions"] for row in rows]
    constraints = [row["constraints"] for row in rows]
    r_squared = coefficient_of_determination(instructions, constraints)
    total_pops = sum(row["worklist_pops"] for row in rows)
    total_constraints = sum(row["constraints"] for row in rows)
    pops_per_constraint = total_pops / total_constraints

    summary = {
        "benchmark": "AGGREGATE",
        "instructions": sum(instructions),
        "constraints": total_constraints,
        "worklist_pops": total_pops,
        "pops_per_constraint": round(pops_per_constraint, 3),
        "solve_seconds": round(sum(row["solve_seconds"] for row in rows), 5),
    }
    rows.append(summary)
    print_table("Figure 11 - instructions vs generated constraints", rows)
    print("R^2(instructions, constraints) = {:.4f}".format(r_squared))
    write_results("fig11_scalability", rows)

    # --- shape checks -------------------------------------------------------
    # Constraint generation is linear in practice: R^2 close to 1 (paper: 0.992).
    assert r_squared > 0.95, "R^2 = {:.4f}".format(r_squared)
    # Constraint count never exceeds (number of values + arguments), i.e. it
    # is at most linear with a small constant.
    assert all(row["constraints"] <= row["instructions"] * 2 for row in rows[:-1])
    # Worklist behaviour: each constraint is revisited a small constant number
    # of times (the paper measures about 2.12).
    assert pops_per_constraint < 4.0
