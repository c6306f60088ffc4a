"""Solver hot path — the sparse worklist solvers vs the dense seed sweeps.

The analysis pipeline's inner loops are the fixed-point solvers: the range
analysis re-evaluates the members of every cyclic dependence component until
stable, and the less-than solver re-evaluates constraints until the LT sets
quiesce.  The seed implementation is *dense* — every widening/narrowing
sweep revisits every member of a component — which is quadratic on the long
dependence chains loop-heavy code produces.  The sparse solvers re-evaluate
only the users of values that actually changed.

This figure builds a loop-heavy synthetic workload (loops whose bodies are
long arithmetic dependence chains, plus the paper's nested-loop kernels),
runs the production solvers and the dense and constraint-keyed references
of :mod:`repro.verify.reference` over identical IR, and reports
transfer-function evaluations and wall time per configuration.  Three
contracts are enforced:

* the interval fixed points (and therefore all downstream verdicts) are
  bit-identical between the solvers,
* the sparse range solver performs at least ``MIN_EVAL_REDUCTION`` (3×)
  fewer transfer-function evaluations overall,
* the sparse path is not slower than the dense baseline in wall time
  (relaxable to ``REPRO_MAX_SPARSE_RATIO`` for noisy shared runners).

A second test gates the cost of the disabled tracer on the sparse solve.
"""

import time

from harness import full_scale, print_table, write_results

from repro.api import env_float
from repro.core.lessthan.generation import ConstraintGenerator
from repro.core.lessthan.solver import ConstraintSolver
from repro.essa.transform import convert_to_essa
from repro.frontend import compile_source
from repro.obs import TRACER
from repro.rangeanalysis import RangeAnalysis
from repro.synth.kernels import KERNEL_SOURCES
from repro.verify.reference import ConstraintKeyedSolver, DenseRangeAnalysis

#: dependence-chain lengths of the synthetic loop bodies.
CHAIN_LINKS = (16, 32, 64, 96) if not full_scale() else (16, 32, 64, 96, 128, 192)
REPEATS = 5 if full_scale() else 3
MIN_EVAL_REDUCTION = 3.0
#: wall-clock gate; sparse must not be slower than dense (1.0), relaxed on
#: noisy shared CI runners via the environment.
MAX_SPARSE_RATIO = env_float("REPRO_MAX_SPARSE_RATIO", 1.0)
#: disabled-tracer overhead budget as a fraction of the sparse solve wall
#: time (the obs contract: tracing off must stay within 2% of baseline).
MAX_TRACE_OVERHEAD = env_float("REPRO_MAX_TRACE_OVERHEAD", 0.02)
#: disabled span/timer calls per microbenchmark batch.
TRACE_OVERHEAD_CALLS = 100_000

#: nested-loop kernels of the paper, for realism next to the synthetic chains.
KERNEL_NAMES = ("ins_sort", "partition", "two_pointer_sum")


def _chain_source(name, links):
    """``int f(int n) { x = 0; while (x < n) x = x + 1 + ... + 1; }``

    Lowering turns the chained additions into one long def-use chain inside
    the loop's dependence cycle: a single SCC of ``links + 1`` values, the
    worst case for dense sweeps (one extra sweep per chain position).
    """
    body = "x + 1" + " + 1" * (links - 1)
    return ("int {name}(int n) {{\n"
            "  int x = 0;\n"
            "  while (x < n) {{\n"
            "    x = {body};\n"
            "  }}\n"
            "  return x;\n"
            "}}\n").format(name=name, body=body)


def _workload():
    programs = [("chain{}".format(links), _chain_source("chain{}".format(links), links))
                for links in CHAIN_LINKS]
    programs += [(name, KERNEL_SOURCES[name]) for name in KERNEL_NAMES]
    return programs


def _prepared_functions(name, source):
    """The program's functions in e-SSA form — the form the pipeline solves on."""
    module = compile_source(source, module_name=name)
    functions = list(module.defined_functions())
    for function in functions:
        convert_to_essa(function)
    return module, functions


def _range_pass(functions, analysis_class):
    """One full range-analysis pass; returns (analyses, evaluations)."""
    analyses = [analysis_class(function) for function in functions]
    return analyses, sum(analysis.statistics.evaluations for analysis in analyses)


def _lt_solve(module, functions, solver_class):
    """Generate Figure-7 constraints once and solve with ``solver_class``."""
    ranges = {function: RangeAnalysis(function) for function in functions}
    constraints = ConstraintGenerator(ranges).generate_for_module(module)
    solver = solver_class(constraints)
    solution = solver.solve()
    return solution, solver.statistics


def _time_repeats(thunk, repeats):
    start = time.perf_counter()
    for _ in range(repeats):
        result = thunk()
    return time.perf_counter() - start, result


def _measure_program(name, source):
    module, functions = _prepared_functions(name, source)

    dense_seconds, (dense_analyses, dense_evals) = _time_repeats(
        lambda: _range_pass(functions, DenseRangeAnalysis), REPEATS)
    sparse_seconds, (sparse_analyses, sparse_evals) = _time_repeats(
        lambda: _range_pass(functions, RangeAnalysis), REPEATS)

    # Contract: identical fixed points, value for value.
    for dense, sparse in zip(dense_analyses, sparse_analyses):
        assert dense.ranges == sparse.ranges, name

    legacy_solution, legacy_stats = _lt_solve(module, functions,
                                              ConstraintKeyedSolver)
    sparse_solution, sparse_stats = _lt_solve(module, functions,
                                              ConstraintSolver)
    assert legacy_solution == sparse_solution, name

    return {
        "benchmark": name,
        "values": sum(len(analysis.ranges) for analysis in sparse_analyses),
        "dense_evals": dense_evals,
        "sparse_evals": sparse_evals,
        "eval_reduction": round(dense_evals / sparse_evals, 2) if sparse_evals else 0.0,
        "lt_evals_legacy": legacy_stats.worklist_pops,
        "lt_evals_sparse": sparse_stats.worklist_pops,
        "lt_skip_ratio": round(sparse_stats.skip_ratio, 2),
        "dense_ms": round(1000.0 * dense_seconds / REPEATS, 2),
        "sparse_ms": round(1000.0 * sparse_seconds / REPEATS, 2),
        "speedup": round(dense_seconds / sparse_seconds, 2) if sparse_seconds else 0.0,
        "_dense_seconds": dense_seconds,
        "_sparse_seconds": sparse_seconds,
    }


def test_sparse_solver_hotpath(benchmark):
    programs = _workload()
    rows = [_measure_program(name, source) for name, source in programs]

    # pytest-benchmark tracks the sparse pass on the largest chain program.
    _bench_module, bench_functions = _prepared_functions(*programs[len(CHAIN_LINKS) - 1])
    benchmark(_range_pass, bench_functions, RangeAnalysis)

    total_dense = sum(row.pop("_dense_seconds") for row in rows)
    total_sparse = sum(row.pop("_sparse_seconds") for row in rows)
    dense_evals = sum(row["dense_evals"] for row in rows)
    sparse_evals = sum(row["sparse_evals"] for row in rows)
    reduction = dense_evals / sparse_evals
    time_ratio = total_sparse / total_dense
    rows.append({
        "benchmark": "TOTAL",
        "dense_evals": dense_evals,
        "sparse_evals": sparse_evals,
        "eval_reduction": round(reduction, 2),
        "lt_evals_legacy": sum(row["lt_evals_legacy"] for row in rows),
        "lt_evals_sparse": sum(row["lt_evals_sparse"] for row in rows),
        "dense_ms": round(1000.0 * total_dense / REPEATS, 2),
        "sparse_ms": round(1000.0 * total_sparse / REPEATS, 2),
        "speedup": round(total_dense / total_sparse, 2),
        "repeats": REPEATS,
    })
    print_table("Solver hot path - sparse worklist vs dense sweeps", rows)
    write_results("solver_hotpath", rows)

    # --- shape checks -------------------------------------------------------
    # The tentpole's measurable claim: at least 3x fewer transfer-function
    # evaluations on loop-heavy workloads (bit-identity asserted per program
    # above), and no wall-clock regression for the sparse default.
    assert reduction >= MIN_EVAL_REDUCTION, \
        "sparse solver only cut evaluations by {:.2f}x".format(reduction)
    assert time_ratio <= MAX_SPARSE_RATIO, \
        "sparse path took {:.2f}x the dense wall time".format(time_ratio)
    # The variable-keyed LT solver never evaluates more constraints than
    # the reference constraint-keyed scheme.
    for row in rows[:-1]:
        assert row["lt_evals_sparse"] <= row["lt_evals_legacy"], row["benchmark"]


def test_tracer_disabled_overhead():
    """Gate the obs layer's disabled-path cost on the solver hot path.

    The instrumentation contract is that a disabled ``TRACER.span()`` is one
    attribute check (and a disabled timer two clock reads), so the spans a
    traced solve *would* emit must cost a negligible slice of the untraced
    solve.  Measured as: (spans one enabled sparse pass records) x (the
    per-call cost of the heavier disabled construct, the always-on timer),
    gated at ``MAX_TRACE_OVERHEAD`` (2%) of the sparse pass's wall time.
    """
    assert not TRACER.enabled
    name, source = _workload()[len(CHAIN_LINKS) - 1]
    _module, functions = _prepared_functions(name, source)

    sparse_seconds, _ = _time_repeats(
        lambda: _range_pass(functions, RangeAnalysis), REPEATS)
    per_pass = sparse_seconds / REPEATS

    # How many spans does one traced pass emit?
    TRACER.enable()
    try:
        _range_pass(functions, RangeAnalysis)
        spans_per_pass = len(TRACER.spans())
    finally:
        TRACER.disable()
        TRACER.reset()

    # Per-call cost of the disabled constructs; the timer is the heavier one
    # (it keeps measuring so solver statistics survive untraced runs).
    start = time.perf_counter()
    for _ in range(TRACE_OVERHEAD_CALLS):
        with TRACER.span("bench.noop"):
            pass
    span_cost = (time.perf_counter() - start) / TRACE_OVERHEAD_CALLS
    start = time.perf_counter()
    for _ in range(TRACE_OVERHEAD_CALLS):
        with TRACER.timer("bench.noop"):
            pass
    timer_cost = (time.perf_counter() - start) / TRACE_OVERHEAD_CALLS

    overhead = spans_per_pass * max(span_cost, timer_cost)
    ratio = overhead / per_pass if per_pass else 0.0
    rows = [{
        "spans_per_pass": spans_per_pass,
        "span_ns": round(span_cost * 1e9, 1),
        "timer_ns": round(timer_cost * 1e9, 1),
        "pass_ms": round(per_pass * 1e3, 3),
        "overhead_ratio": round(ratio, 5),
        "budget": MAX_TRACE_OVERHEAD,
    }]
    print_table("Disabled-tracer overhead on the sparse solve", rows)
    write_results("tracer_overhead", rows)
    assert ratio <= MAX_TRACE_OVERHEAD, \
        "disabled tracing costs {:.2%} of the sparse solve (budget {:.0%})".format(
            ratio, MAX_TRACE_OVERHEAD)
