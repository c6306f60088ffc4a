"""Tests for the range-analysis driver and its schedule."""

from repro.ir import INT, IRBuilder, Module
from repro.rangeanalysis import Interval, POS_INF, RangeAnalysis
from repro.util.scc import strongly_connected_components
from tests.helpers import (
    build_counting_loop_module,
    build_diamond_module,
    build_straightline_module,
    build_two_index_loop_module,
)


def test_scc_of_simple_graph():
    nodes = ["a", "b", "c", "d"]
    successors = {"a": ["b"], "b": ["c"], "c": ["b", "d"], "d": []}
    components = strongly_connected_components(nodes, successors)
    as_sets = [frozenset(c) for c in components]
    assert frozenset({"b", "c"}) in as_sets
    assert frozenset({"a"}) in as_sets
    assert frozenset({"d"}) in as_sets


def test_walk_evaluates_defs_before_uses():
    module, function = build_straightline_module()
    analysis = RangeAnalysis(function, argument_ranges={
        function.arguments[0]: Interval(0, 10),
        function.arguments[1]: Interval(1, 1)})
    add = function.entry_block.instructions[0]
    sub = function.entry_block.instructions[1]
    # One evaluation per value: a and b, then c = a + b, then d = c - 1.
    assert analysis.statistics.evaluations == 4
    assert analysis.range_of(add) == Interval(1, 11)
    assert analysis.range_of(sub) == Interval(0, 10)


def test_residue_holds_the_loop_cycle():
    module, function = build_counting_loop_module()
    analysis = RangeAnalysis(function)
    assert analysis.statistics.cyclic_components == 1
    assert analysis.statistics.widenings >= 1
    assert {value.name for value in analysis.widening_points} <= {"i", "inext"}


def test_constants_propagate_through_straightline_code():
    module = Module("m")
    f = module.create_function("f", INT, [], [])
    entry = f.append_block(name="entry")
    builder = IRBuilder(entry)
    a = builder.add(builder.const(2), builder.const(3), "a")     # 5
    b = builder.mul(a, builder.const(4), "b")                    # 20
    c = builder.sub(b, builder.const(1), "c")                    # 19
    builder.ret(c)
    ranges = RangeAnalysis(f)
    assert ranges.range_of(a) == Interval.constant(5)
    assert ranges.range_of(b) == Interval.constant(20)
    assert ranges.range_of(c) == Interval.constant(19)


def test_arguments_default_to_top_and_can_be_pinned():
    module, function = build_straightline_module()
    a, b = function.arguments
    ranges = RangeAnalysis(function)
    assert ranges.range_of(a).is_top()
    pinned = RangeAnalysis(function, argument_ranges={a: Interval(0, 10), b: Interval(1, 1)})
    add = function.entry_block.instructions[0]
    assert pinned.range_of(add) == Interval(1, 11)


def test_phi_joins_incoming_ranges():
    module, function = build_diamond_module()
    # f(a, b): then -> a + 1, else -> b + 2; with unknown arguments the phi is top.
    join_phi = function.block_by_name("join").phis()[0]
    ranges = RangeAnalysis(function)
    assert ranges.range_of(join_phi).is_top()
    a, b = function.arguments
    pinned = RangeAnalysis(function, argument_ranges={a: Interval(0, 0), b: Interval(10, 10)})
    assert pinned.range_of(join_phi) == Interval(1, 12)


def test_loop_counter_is_widened_to_at_least_zero():
    module, function = build_counting_loop_module()
    header = function.block_by_name("header")
    i_phi = header.phis()[0]
    ranges = RangeAnalysis(function)
    interval = ranges.range_of(i_phi)
    # The counter starts at 0 and only grows; widening keeps the lower bound.
    assert interval.lower == 0
    assert interval.upper == POS_INF


def test_constant_classification_helpers():
    module, function = build_two_index_loop_module()
    ranges = RangeAnalysis(function)
    one = IRBuilder.const(1)
    assert ranges.is_strictly_positive(one)
    assert ranges.is_strictly_negative(IRBuilder.const(-2))
    assert not ranges.is_strictly_positive(function.arguments[1])


def test_division_and_remainder_ranges():
    module = Module("m")
    f = module.create_function("f", INT, [INT], ["x"])
    entry = f.append_block(name="entry")
    builder = IRBuilder(entry)
    halved = builder.div(f.arguments[0], builder.const(2), "halved")
    reduced = builder.rem(f.arguments[0], builder.const(8), "reduced")
    builder.ret(halved)
    ranges = RangeAnalysis(f, argument_ranges={f.arguments[0]: Interval(0, 100)})
    assert ranges.range_of(halved) == Interval(0, 50)
    assert ranges.range_of(reduced) == Interval(-7, 7)
