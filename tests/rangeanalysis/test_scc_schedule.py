"""Unit tests for the schedule of the range solver.

Tarjan's algorithm on hand-built graphs (self-loops, nested cycles, DAGs),
then the residue schedule over real functions: the reverse-postorder walk
finalizes every value outside loops, and the cyclic components handed to
``_solve_cyclic`` are exactly the loops of the integer def-use graph, in
topological order, with sorted intra-component def-use slices.
"""

from repro.core import LessThanAnalysis
from repro.frontend import compile_source
from repro.ir import INT, IRBuilder, Module
from repro.ir.instructions import BinaryOp, Copy, Load, Phi
from repro.ir.values import Argument
from repro.rangeanalysis import Interval, RangeAnalysis
from repro.util.scc import strongly_connected_components
from repro.verify.reference import DenseRangeAnalysis
from tests.helpers import build_counting_loop_module, build_two_index_loop_module


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


# -- the residue schedule over real functions ---------------------------------------

NESTED_LOOPS = ("int f(int* v, int n) {\n"
                "  int s = 0;\n"
                "  for (int i = 0; i < n; i = i + 1) {\n"
                "    for (int j = i; j < n; j = j + 1) { s = s + v[j]; }\n"
                "    v[i] = s;\n"
                "  }\n"
                "  int t = s * 2;\n"
                "  return t - n;\n"
                "}\n")


class _Recording(RangeAnalysis):
    """Records the components the residue solve hands to ``_solve_cyclic``,
    with the intervals their outside inputs had at that moment."""

    def _solve_cyclic(self, component):
        if not hasattr(self, "cyclic"):
            self.cyclic = []
        members = set(component.members)
        inputs = {operand: self.ranges.get(operand)
                  for value in component.members for operand in _inputs(value)
                  if _tracked(operand) and operand not in members}
        self.cyclic.append((component, inputs))
        before = self.statistics.evaluations
        super()._solve_cyclic(component)
        self.cyclic_evaluations = (getattr(self, "cyclic_evaluations", 0)
                                   + self.statistics.evaluations - before)


def _nested_function():
    module = compile_source(NESTED_LOOPS, module_name="nested")
    LessThanAnalysis(module, build_essa=True)
    return module.get_function("f")


def _inputs(value):
    operands = list(getattr(value, "operands", ()))
    condition = getattr(value, "sigma_condition", None)
    if isinstance(value, Copy) and condition is not None:
        operands += list(condition.operands)
    return operands


def _tracked(value):
    return (isinstance(value, (Argument, BinaryOp, Phi, Copy, Load))
            and not value.is_pointer())


def _full_condensation(function):
    """Tarjan over the whole integer def-use graph: the plain schedule."""
    nodes = [value for value in function.values() if _tracked(value)]
    users = {node: [] for node in nodes}
    for node in nodes:
        for operand in _inputs(node):
            if _tracked(operand):
                users[operand].append(node)
    components = strongly_connected_components(nodes, users)
    return [component for component in components
            if len(component) > 1 or component[0] in users[component[0]]]


def test_schedule_is_topological_over_the_condensation():
    # Every input from outside a cyclic component is final when the
    # component is solved: the interval it had then is the one it ends with.
    analysis = _Recording(_nested_function())
    assert len(analysis.cyclic) >= 2
    for _component, inputs in analysis.cyclic:
        for operand, interval in inputs.items():
            assert interval is not None, "dependency scheduled after its dependant"
            assert interval == analysis.ranges[operand]


def test_cyclic_flag_marks_exactly_the_loop_components():
    # The components the residue solve treats as cyclic are exactly the
    # loop's: n is final in the walk, i and inext form the one component.
    _module, function = build_counting_loop_module()
    analysis = _Recording(function)
    ((component, _inputs_then),) = analysis.cyclic
    assert {value.name for value in component.members} == {"i", "inext"}
    statistics = analysis.statistics
    assert statistics.cyclic_components == 1
    assert statistics.components == 2
    assert analysis.range_of(function.value_by_name("i")).lower == 0


def test_singleton_slices_use_the_fast_path_shape():
    # x = phi(0, x): a self-loop is a one-member cyclic component that is
    # its own only user.
    module = Module("selfloop")
    function = module.create_function("f", INT, [INT], ["n"])
    entry = function.append_block(name="entry")
    header = function.append_block(name="header")
    exit_block = function.append_block(name="exit")
    builder = IRBuilder(entry)
    builder.jump(header)
    builder.set_insert_point(header)
    x = builder.phi(INT, "x")
    cond = builder.icmp_slt(x, function.arguments[0], "cond")
    builder.branch(cond, header, exit_block)
    x.add_incoming(builder.const(0), entry)
    x.add_incoming(x, header)
    builder.set_insert_point(exit_block)
    builder.ret(x)
    analysis = _Recording(function)
    ((component, _inputs_then),) = analysis.cyclic
    assert component.members == [x] and component.users == [[0]]
    assert analysis.range_of(x) == Interval.constant(0)


def test_users_slices_are_sorted_member_indices():
    analysis = _Recording(_nested_function())
    assert analysis.cyclic
    for component, _inputs_then in analysis.cyclic:
        count = len(component)
        assert len(component.users) == count
        for users in component.users:
            assert users == sorted(users)
            assert all(0 <= index < count for index in users)


def test_schedule_matches_legacy_component_iteration():
    # The residue's cyclic components are exactly the cyclic components of
    # the full condensation, and the walk evaluated everything else once.
    for function in (_nested_function(), build_two_index_loop_module()[1]):
        analysis = _Recording(function)
        components = [component for component, _inputs_then in analysis.cyclic]
        assert {frozenset(component.members) for component in components} \
            == {frozenset(members) for members in _full_condensation(function)}
        cyclic_members = sum(len(component) for component in components)
        dense = DenseRangeAnalysis(function)
        assert dense.ranges == analysis.ranges
        acyclic = len(analysis.ranges) - cyclic_members
        assert analysis.statistics.components == acyclic + len(components)


def test_values_outside_loops_are_evaluated_once():
    analysis = _Recording(_nested_function())
    in_loops = {value for component, _inputs_then in analysis.cyclic
                for value in component.members}
    outside = len(analysis.ranges) - len(in_loops)
    assert outside > len(in_loops)
    assert analysis.statistics.evaluations == \
        outside + analysis.cyclic_evaluations
