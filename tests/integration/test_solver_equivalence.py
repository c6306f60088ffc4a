"""End-to-end bit-identity of alias verdicts across solver implementations.

The contract of the sparse solver layer: per-pair alias verdicts must be
**bit-identical** between the production solvers (the sparse range solver
and the variable-keyed less-than solver) and their reference oracles (the
dense range solver and the constraint-keyed less-than strategy), because
the fixed points the solvers reach are the same.  The reference solvers are
constructor arguments only, so these tests route the pipeline's solves to
them by pinning the argument at the two construction sites, and the whole
pipeline (frontend → e-SSA → ranges → constraints → disambiguation →
aa-eval) runs under each combination.
"""

from repro.api import Session
from repro.synth import kernel_module, kernel_names

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


def _pin_solvers(monkeypatch, range_solver, lt_strategy):
    """Make every range solve use ``range_solver`` and every less-than solve
    ``lt_strategy`` for the rest of the test (in-process runs only)."""
    import repro.core.lessthan.analysis as lessthan_module
    import repro.rangeanalysis.analysis as range_module

    range_class = range_module.RangeAnalysis
    solver_class = lessthan_module.ConstraintSolver

    class PinnedRangeAnalysis(range_class):
        def __init__(self, function, argument_ranges=None, solver=None,
                     previous=None):
            super().__init__(function, argument_ranges, range_solver, previous)

    class PinnedConstraintSolver(solver_class):
        def __init__(self, constraints, strategy=None):
            super().__init__(constraints, lt_strategy)

    monkeypatch.setattr(range_module, "RangeAnalysis", PinnedRangeAnalysis)
    monkeypatch.setattr(lessthan_module, "RangeAnalysis", PinnedRangeAnalysis)
    monkeypatch.setattr(lessthan_module, "ConstraintSolver",
                        PinnedConstraintSolver)


def _run_with_solvers(monkeypatch, range_solver, lt_strategy):
    with monkeypatch.context() as patch:
        _pin_solvers(patch, range_solver, lt_strategy)
        with Session(workers=0, store_path=None) as session:
            return session.run_workload(_kernel_units(), specs=SPECS)


def test_verdicts_bit_identical_across_solver_modes(monkeypatch):
    sparse = _run_with_solvers(monkeypatch, "sparse", "sparse")
    dense = _run_with_solvers(monkeypatch, "dense", "constraint")
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
    mixed_a = _run_with_solvers(monkeypatch, "sparse", "constraint")
    mixed_b = _run_with_solvers(monkeypatch, "dense", "sparse")
    assert _verdict_streams(mixed_a) == _verdict_streams(mixed_b)


def test_worklist_order_equivalence_survives_sharding():
    """Serial vs ``workers=2`` under the solvers' FIFO order: identical
    verdicts and identical merged solver totals (the per-shard
    ``SolverInfo`` counters must survive the coordinator merge
    losslessly)."""
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
    from repro.core.lessthan.solver import ConstraintSolver

    for name in kernel_names():
        module = kernel_module(name)
        analysis = LessThanAnalysis(module, build_essa=True,
                                    solver_strategy="constraint")
        resolved = ConstraintSolver(analysis.constraints,
                                    strategy="sparse").solve()
        assert resolved == analysis.lt_sets, name
