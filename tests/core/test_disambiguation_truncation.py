"""Tests for equivalence-class truncation: determinism and statistics."""

from repro.core import (
    DisambiguationStatistics,
    LessThanAnalysis,
    PointerDisambiguator,
)
from repro.core.disambiguation import equivalent_names
from repro.ir import INT, IRBuilder, Module
from repro.ir.instructions import Copy


def _function_with_copies(names):
    """``f(x)`` plus one copy of ``x`` per name, created in the given order."""
    module = Module("m")
    f = module.create_function("f", INT, [INT], ["x"])
    entry = f.append_block(name="entry")
    x = f.arguments[0]
    copies = {}
    for name in names:
        copies[name] = entry.append(Copy(x, name))
    IRBuilder(entry).ret(x)
    return f, x, copies


def test_small_classes_are_complete_and_not_truncated():
    f, x, copies = _function_with_copies(["a", "b", "c"])
    stats = DisambiguationStatistics()
    names = equivalent_names(x, limit=64, statistics=stats)
    assert {n.name for n in names} == {"x", "a", "b", "c"}
    assert stats.truncated_classes == 0
    assert stats.largest_class == 4


def test_truncation_is_reported_and_keeps_root_and_value():
    f, x, copies = _function_with_copies(["a", "b", "c", "d", "e"])
    stats = DisambiguationStatistics()
    names = equivalent_names(copies["e"], limit=3, statistics=stats)
    assert stats.truncated_classes == 1
    assert stats.largest_class == 6
    assert len(names) == 3
    kept = {n.name for n in names}
    # The canonical root and the queried value always survive truncation.
    assert "x" in kept and "e" in kept


def test_truncation_is_independent_of_construction_order():
    """The members kept do not depend on the uses-list (creation) order."""
    order_a = ["a", "b", "c", "d", "e"]
    _fa, xa, _ca = _function_with_copies(order_a)
    _fb, xb, _cb = _function_with_copies(list(reversed(order_a)))
    names_a = {n.name for n in equivalent_names(xa, limit=3)}
    names_b = {n.name for n in equivalent_names(xb, limit=3)}
    assert names_a == names_b
    # Deterministic selection: root plus the smallest names in name order.
    assert names_a == {"x", "a", "b"}


def test_disambiguator_surfaces_truncation_in_statistics():
    f, x, copies = _function_with_copies(["a", "b", "c", "d", "e"])
    analysis = LessThanAnalysis(f.parent, build_essa=False)
    disambiguator = PointerDisambiguator(analysis, class_limit=3)
    disambiguator._class_info(x)
    assert disambiguator.statistics.truncated_classes == 1
    assert disambiguator.statistics.largest_class == 6
    payload = disambiguator.statistics.as_dict()
    assert payload["truncated_classes"] == 1
    assert payload["memoized_values"] == 1


def test_unlimited_traversal_with_limit_none():
    f, x, copies = _function_with_copies(["a", "b", "c", "d", "e"])
    names = equivalent_names(x, limit=None)
    assert len(names) == 6
