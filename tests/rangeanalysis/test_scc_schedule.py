"""Unit tests for the SCC condensation layer of the range solver.

Tarjan's algorithm on hand-built graphs (self-loops, nested cycles, DAGs),
then the solver-ready :class:`SCCSchedule`: topological component order,
cyclic flags and intra-component def-use slices.
"""

from repro.core import LessThanAnalysis
from repro.frontend import compile_source
from repro.rangeanalysis.graph import (
    DependencyGraph,
    SCCSchedule,
    strongly_connected_components,
)
from tests.helpers import build_counting_loop_module


def _components(nodes, edges):
    successors = {node: [] for node in nodes}
    for src, dst in edges:
        successors[src].append(dst)
    return strongly_connected_components(nodes, successors)


def _as_sets(components):
    return [frozenset(component) for component in components]


# -- Tarjan on plain graphs ---------------------------------------------------------

def test_dag_yields_singletons_in_reverse_topological_order():
    components = _components("abcd", [("a", "b"), ("b", "c"), ("a", "d")])
    assert set(_as_sets(components)) == {
        frozenset("a"), frozenset("b"), frozenset("c"), frozenset("d")}
    # Reverse topological: every component precedes the ones that feed it.
    order = {next(iter(component)): index
             for index, component in enumerate(components)}
    assert order["c"] < order["b"] < order["a"]
    assert order["d"] < order["a"]


def test_self_loop_is_its_own_component():
    components = _components("ab", [("a", "a"), ("a", "b")])
    assert _as_sets(components) == [frozenset("b"), frozenset("a")]


def test_simple_cycle_collapses_into_one_component():
    components = _components("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    assert _as_sets(components) == [frozenset("abc")]


def test_nested_cycles_collapse_into_the_enclosing_component():
    # Outer cycle a->b->c->a with an inner cycle b->d->b nested inside it:
    # d reaches a through b, so all four are one component.
    components = _components("abcd", [("a", "b"), ("b", "c"), ("c", "a"),
                                      ("b", "d"), ("d", "b")])
    assert _as_sets(components) == [frozenset("abcd")]


def test_two_cycles_bridged_by_an_edge_stay_separate():
    components = _components("abcd", [("a", "b"), ("b", "a"),
                                      ("b", "c"), ("c", "d"), ("d", "c")])
    assert _as_sets(components) == [frozenset("cd"), frozenset("ab")]


def test_disconnected_nodes_are_all_covered():
    components = _components("abc", [])
    assert set(_as_sets(components)) == {
        frozenset("a"), frozenset("b"), frozenset("c")}


# -- SCCSchedule over real functions ------------------------------------------------

def _loop_schedule():
    _module, function = build_counting_loop_module()
    return SCCSchedule(DependencyGraph(function))


def test_schedule_is_topological_over_the_condensation():
    _module, function = build_counting_loop_module()
    graph = DependencyGraph(function)
    schedule = graph.condense()
    seen = set()
    for component in schedule:
        for value in component.members:
            for pred in graph.predecessors.get(value, []):
                if pred not in component.members:
                    assert pred in seen, \
                        "dependency scheduled after its dependant"
        seen.update(component.members)
    # Every tracked value is scheduled exactly once.
    assert sorted(map(id, seen)) == sorted(map(id, graph.nodes))


def test_cyclic_flag_marks_exactly_the_loop_components():
    schedule = _loop_schedule()
    cyclic = [component for component in schedule if component.cyclic]
    assert cyclic, "a counting loop must produce a cyclic component"
    for component in schedule:
        if len(component) > 1:
            assert component.cyclic


def test_singleton_slices_use_the_fast_path_shape():
    schedule = _loop_schedule()
    for component in schedule:
        if len(component) != 1:
            continue
        # An acyclic singleton has no intra-component users; a self-loop
        # would list itself.
        assert component.users in ([[]], [[0]])


def test_users_slices_are_sorted_member_indices():
    schedule = _loop_schedule()
    for component in schedule:
        count = len(component)
        assert len(component.users) == count
        for users in component.users:
            assert users == sorted(users)
            assert all(0 <= index < count for index in users)


def test_schedule_matches_legacy_component_iteration():
    source = ("int f(int n) {\n"
              "  int x = 0;\n"
              "  while (x < n) { x = x + 1; }\n"
              "  return x;\n"
              "}\n")
    module = compile_source(source, module_name="sched")
    LessThanAnalysis(module, build_essa=True)
    for function in module.defined_functions():
        graph = DependencyGraph(function)
        legacy = graph.components_in_topological_order()
        schedule = graph.condense()
        assert [component.members for component in schedule] == legacy
        assert [component.cyclic for component in schedule] == \
            [graph.component_is_cyclic(members) for members in legacy]

