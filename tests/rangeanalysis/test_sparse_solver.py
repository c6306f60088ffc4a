"""Differential and regression tests for the sparse range solver.

The sparse def-use worklist must produce intervals **bit-identical** to the
dense reference sweeps of :class:`repro.verify.reference.DenseRangeAnalysis`
(the worklist only skips evaluations that are provably no-ops), while performing no more — and on loop-heavy code far
fewer — transfer-function evaluations.  Interval interning is asserted at
object-identity level: repeated constant lookups must stop allocating.
"""

import pytest

from repro.core import LessThanAnalysis
from repro.frontend import compile_source
from repro.ir import IRBuilder
from repro.rangeanalysis import Interval, RangeAnalysis
from repro.synth import kernel_module, kernel_names
from repro.verify.reference import DenseRangeAnalysis
from tests.helpers import (
    build_counting_loop_module,
    build_figure3_module,
    build_two_index_loop_module,
)

#: a loop whose body is one long dependence chain — the SCC the dense solver
#: is quadratic on and the sparse solver linear.
CHAIN_SOURCE = (
    "int chain(int n) {\n"
    "  int x = 0;\n"
    "  while (x < n) {\n"
    "    x = x" + " + 1" * 24 + ";\n"
    "  }\n"
    "  return x;\n"
    "}\n"
)


def _assert_identical(function):
    dense = DenseRangeAnalysis(function)
    sparse = RangeAnalysis(function)
    assert set(dense.ranges) == set(sparse.ranges)
    for value in dense.ranges:
        assert dense.ranges[value] == sparse.ranges[value], \
            "{}: {} != {}".format(value, dense.ranges[value], sparse.ranges[value])
    return dense, sparse


@pytest.mark.parametrize("builder", [
    build_counting_loop_module,
    build_two_index_loop_module,
    build_figure3_module,
])
def test_sparse_matches_dense_on_helper_modules(builder):
    _module, function = builder()
    _assert_identical(function)


def test_sparse_matches_dense_on_every_kernel():
    for name in kernel_names():
        module = kernel_module(name)
        for function in module.defined_functions():
            _assert_identical(function)
        # The e-SSA form (σ-copies, condition edges) is the form the
        # pipeline actually solves on — cover it too.
        LessThanAnalysis(module, build_essa=True)
        for function in module.defined_functions():
            _assert_identical(function)


def test_sparse_never_evaluates_more_than_dense():
    # The sparse solver replays the dense sweeps and only ever skips
    # evaluations that are provably no-ops.
    for name in kernel_names():
        module = kernel_module(name)
        for function in module.defined_functions():
            dense = DenseRangeAnalysis(function)
            sparse = RangeAnalysis(function)
            assert dense.ranges == sparse.ranges
            assert sparse.statistics.evaluations <= dense.statistics.evaluations


def test_sparse_wins_big_on_loop_heavy_chains():
    module = compile_source(CHAIN_SOURCE, module_name="chain")
    function = next(iter(module.defined_functions()))
    dense, sparse = _assert_identical(function)
    assert dense.statistics.evaluations >= 3 * sparse.statistics.evaluations


def test_widening_points_are_tracked_per_value():
    _module, function = build_counting_loop_module()
    analysis = RangeAnalysis(function)
    header_phi = function.block_by_name("header").phis()[0]
    assert header_phi in analysis.widening_points
    assert analysis.statistics.widening_points == len(analysis.widening_points)
    assert analysis.statistics.widenings >= 1
    dense = DenseRangeAnalysis(function)
    assert dense.widening_points == analysis.widening_points


def test_statistics_shape():
    _module, function = build_counting_loop_module()
    stats = RangeAnalysis(function).statistics.as_dict()
    for key in ("evaluations", "components", "cyclic_components",
                "widenings", "narrowings", "widening_points"):
        assert key in stats
    assert stats["evaluations"] > 0
    assert stats["cyclic_components"] >= 1


def test_solver_selection_via_environment(monkeypatch):
    # There is one production solver: a REPRO_RANGE_SOLVER left in the
    # environment does not reroute it, and the old keyword is gone.
    monkeypatch.setenv("REPRO_RANGE_SOLVER", "dense")
    module = compile_source(CHAIN_SOURCE, module_name="chain")
    function = next(iter(module.defined_functions()))
    sparse = RangeAnalysis(function)
    dense = DenseRangeAnalysis(function)
    assert sparse.ranges == dense.ranges
    assert sparse.statistics.evaluations < dense.statistics.evaluations
    with pytest.raises(TypeError):
        RangeAnalysis(function, solver="dense")


# -- interval interning -----------------------------------------------------------

def test_constant_interval_lookups_are_memoized():
    """Satellite regression: repeated ConstantInt queries return the *same*
    Interval object — no allocation on the hot constant path."""
    _module, function = build_counting_loop_module()
    ranges = RangeAnalysis(function)
    constant = IRBuilder.const(7)
    first = ranges.range_of(constant)
    second = ranges.range_of(constant)
    assert first is second
    # Distinct ConstantInt objects with equal values share the interval too.
    assert ranges.range_of(IRBuilder.const(7)) is first


def test_canonical_interval_constructors_are_interned():
    assert Interval.top() is Interval.top()
    assert Interval.bottom() is Interval.bottom()
    assert Interval.constant(5) is Interval.constant(5)
    assert Interval.of(1, 9) is Interval.of(1, 9)
    assert Interval.at_most(3) is Interval.at_most(3)
    assert Interval.at_least(-2) is Interval.at_least(-2)


def test_lattice_operations_avoid_allocation_when_stable():
    wide = Interval.of(0, 100)
    narrow = Interval.of(10, 20)
    assert wide.join(narrow) is wide
    assert narrow.join(wide) is wide
    assert wide.meet(narrow) is narrow
    assert narrow.meet(wide) is narrow
    assert wide.widen(narrow) is wide
    assert wide.narrow(wide) is wide
    assert Interval.bottom().join(wide) is wide
    assert wide.meet(Interval.bottom()) is Interval.bottom()


def test_interning_preserves_equality_semantics():
    # Direct construction bypasses the cache but stays equal to canonical
    # objects; hashing agrees so dict/set membership is unaffected.
    direct = Interval(2, 4)
    canonical = Interval.of(2, 4)
    assert direct == canonical
    assert hash(direct) == hash(canonical)
    assert direct in {canonical}
