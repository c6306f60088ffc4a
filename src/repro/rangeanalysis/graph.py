"""Dependency graph over SSA values with SCC decomposition.

The range analysis follows the structure of Rodrigues et al.'s
implementation: build the graph of data dependences between SSA values,
decompose it into strongly connected components, and solve the components in
topological order.  Acyclic components are evaluated once; cyclic components
(loops) are iterated with widening, then refined with narrowing.
"""

from __future__ import annotations

from typing import Dict, List

from repro.ir.function import Function
from repro.ir.instructions import (
    BinaryOp,
    Copy,
    GetElementPtr,
    Load,
    Phi,
)
from repro.ir.values import Argument, Value
from repro.util.scc import strongly_connected_components

__all__ = [
    "DependencyGraph",
    "SCCComponent",
    "SCCSchedule",
    "strongly_connected_components",
]


class DependencyGraph:
    """Data-dependence graph of the SSA values of one function.

    There is an edge from value ``a`` to value ``b`` when ``b`` is computed
    directly from ``a`` (``b`` uses ``a``).  Only values relevant to integer
    range propagation are tracked: arguments, arithmetic, φ-functions, copies
    and loads (loads are sources with unknown ranges).
    """

    def __init__(self, function: Function) -> None:
        self.function = function
        self.nodes: List[Value] = []
        self.successors: Dict[Value, List[Value]] = {}
        self.predecessors: Dict[Value, List[Value]] = {}
        self._build()

    def _is_tracked(self, value: Value) -> bool:
        if isinstance(value, Argument):
            return True
        if isinstance(value, (BinaryOp, Phi, Copy, Load, GetElementPtr)):
            return True
        return False

    def _add_node(self, value: Value) -> None:
        if value not in self.successors:
            self.nodes.append(value)
            self.successors[value] = []
            self.predecessors[value] = []

    def _add_edge(self, src: Value, dst: Value) -> None:
        self._add_node(src)
        self._add_node(dst)
        self.successors[src].append(dst)
        self.predecessors[dst].append(src)

    def _build(self) -> None:
        for argument in self.function.arguments:
            self._add_node(argument)
        for inst in self.function.instructions():
            if not self._is_tracked(inst):
                continue
            self._add_node(inst)
            for operand in inst.operands:
                if self._is_tracked(operand):
                    self._add_edge(operand, inst)
            # σ-copies are refined with the branch condition they encode, so
            # their abstract value also depends on the condition's operands;
            # without these edges the refinement could read stale ranges.
            condition = getattr(inst, "sigma_condition", None)
            if isinstance(inst, Copy) and condition is not None:
                for operand in condition.operands:
                    if self._is_tracked(operand):
                        self._add_edge(operand, inst)

    def components_in_topological_order(self) -> List[List[Value]]:
        """SCCs ordered so that dependencies come before dependants."""
        components = strongly_connected_components(self.nodes, self.successors)
        # Tarjan emits components in reverse topological order of the
        # condensation (every successor component is emitted before its
        # predecessors), so reversing puts defs before uses... but the edge
        # direction here is def -> use, which makes Tarjan's output already
        # usable once reversed.  Verify by checking edge directions.
        return list(reversed(components))

    def component_is_cyclic(self, component: List[Value]) -> bool:
        if len(component) > 1:
            return True
        node = component[0]
        return node in self.successors.get(node, [])

    def condense(self) -> "SCCSchedule":
        """The condensation of this graph as a solver-ready schedule."""
        return SCCSchedule(self)


class SCCComponent:
    """One strongly connected component, pre-sliced for the solvers.

    ``members`` is the component in its canonical (Tarjan) order — the
    order the dense reference sweeps visit; ``users`` holds, per member
    index, the sorted member indices of its intra-component dependants (the
    def-use slice the sparse solver schedules from).  Acyclic singletons
    (``cyclic`` false) are solved in one pass with no widening.
    """

    __slots__ = ("members", "cyclic", "users")

    def __init__(self, members: List[Value], cyclic: bool,
                 users: List[List[int]]) -> None:
        self.members = members
        self.cyclic = cyclic
        self.users = users

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return "<SCCComponent size={} cyclic={}>".format(
            len(self.members), self.cyclic)


class SCCSchedule:
    """Topological SCC schedule of a :class:`DependencyGraph`.

    The condensation of the def-use graph: components appear with every
    dependency before its dependants, each carrying its member slice and
    its intra-component def-use index lists.  The solvers walk the schedule
    once; widening/narrowing only ever runs inside components flagged
    ``cyclic``.
    """

    def __init__(self, graph: DependencyGraph) -> None:
        self.graph = graph
        self.components: List[SCCComponent] = []
        for members in graph.components_in_topological_order():
            cyclic = graph.component_is_cyclic(members)
            if len(members) == 1:
                # Fast path for the overwhelmingly common case: a singleton
                # needs no slicing (a self-loop is its own only user).
                self.components.append(SCCComponent(
                    members, cyclic, [[0] if cyclic else []]))
                continue
            index_of = {value: index for index, value in enumerate(members)}
            users = [sorted({index_of[user]
                             for user in graph.successors.get(value, [])
                             if user in index_of})
                     for value in members]
            self.components.append(SCCComponent(members, cyclic, users))

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self):
        return iter(self.components)
