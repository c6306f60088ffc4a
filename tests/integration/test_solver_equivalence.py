"""End-to-end bit-identity of alias verdicts across solver implementations.

The contract of the sparse solver layer: per-pair alias verdicts must be
**bit-identical** between the production solvers (the sparse range solver
and the variable-keyed less-than solver) and their reference oracles in
:mod:`repro.verify.reference` (the dense range solver and the
constraint-keyed less-than solver), because the fixed points the solvers
reach are the same.  The production pipeline never constructs a reference,
so these tests monkeypatch the reference classes in at the modules that
construct the solvers, and the whole pipeline (frontend → e-SSA → ranges →
constraints → disambiguation → aa-eval) runs under each combination.
"""

from repro.api import Session
from repro.core.lessthan.solver import ConstraintSolver
from repro.rangeanalysis.analysis import RangeAnalysis
from repro.synth import kernel_module, kernel_names
from repro.verify.reference import ConstraintKeyedSolver, DenseRangeAnalysis

SPECS = (("basicaa",), ("lt",), ("basicaa", "lt"))

#: programs with loops, pointer arithmetic and σ-rich control flow.
PROGRAM_NAMES = ("ins_sort", "partition", "copy_reverse", "pointer_walk",
                 "two_pointer_sum", "stencil3")


def _kernel_units():
    from repro.synth.kernels import KERNEL_SOURCES
    return [(name, KERNEL_SOURCES[name]) for name in PROGRAM_NAMES]


def _verdict_streams(results):
    return [{label: result.verdicts(label) for label in result.labels}
            for result in results]


def _pin_solvers(monkeypatch, range_class, solver_class):
    """Make every range solve use ``range_class`` and every less-than solve
    ``solver_class`` for the rest of the test (in-process runs only)."""
    import repro.core.lessthan.analysis as lessthan_module
    import repro.essa.transform as essa_module
    import repro.passes.analysis_cache as cache_module

    for module in (cache_module, essa_module, lessthan_module):
        monkeypatch.setattr(module, "RangeAnalysis", range_class)
    monkeypatch.setattr(lessthan_module, "ConstraintSolver", solver_class)


def _run_with_solvers(monkeypatch, range_class, solver_class):
    with monkeypatch.context() as patch:
        _pin_solvers(patch, range_class, solver_class)
        with Session(workers=0, store_path=None) as session:
            return session.run_workload(_kernel_units(), specs=SPECS)


def test_verdicts_bit_identical_across_solver_modes(monkeypatch):
    sparse = _run_with_solvers(monkeypatch, RangeAnalysis, ConstraintSolver)
    dense = _run_with_solvers(monkeypatch, DenseRangeAnalysis,
                              ConstraintKeyedSolver)
    assert _verdict_streams(sparse) == _verdict_streams(dense)
    for sparse_result, dense_result in zip(sparse, dense):
        for label in sparse_result.labels:
            assert (sparse_result.evaluation(label).as_dict() ==
                    dense_result.evaluation(label).as_dict())
    # The pin reached the solvers: the dense sweeps evaluate more.
    assert (sum(result.statistics.solver.evaluations for result in dense)
            > sum(result.statistics.solver.evaluations for result in sparse))


def test_verdicts_bit_identical_with_mixed_modes(monkeypatch):
    # One layer sparse, the other the reference — the layers are independent.
    mixed_a = _run_with_solvers(monkeypatch, RangeAnalysis,
                                ConstraintKeyedSolver)
    mixed_b = _run_with_solvers(monkeypatch, DenseRangeAnalysis,
                                ConstraintSolver)
    assert _verdict_streams(mixed_a) == _verdict_streams(mixed_b)


def test_worklist_order_equivalence_survives_sharding():
    """Serial vs ``workers=2`` under the solvers' FIFO order: identical
    verdicts and identical ``SolverInfo`` totals per program (the counters
    a pool worker ships back must match the serial run's)."""
    with Session(store_path=None) as session:
        serial = session.run_workload(_kernel_units(), specs=SPECS, workers=0)
        sharded = session.run_workload(_kernel_units(), specs=SPECS, workers=2)
    assert _verdict_streams(serial) == _verdict_streams(sharded)
    for serial_result, sharded_result in zip(serial, sharded):
        serial_solver = serial_result.statistics.solver
        assert serial_solver == sharded_result.statistics.solver
        assert serial_solver.evaluations > 0
        assert serial_solver.pops > 0


def test_lt_sets_identical_across_strategies():
    from repro.core import LessThanAnalysis

    for name in kernel_names():
        module = kernel_module(name)
        analysis = LessThanAnalysis(module, build_essa=True)
        resolved = ConstraintKeyedSolver(analysis.constraints).solve()
        assert resolved == analysis.lt_sets, name
