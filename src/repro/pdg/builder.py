"""Building program dependence graphs.

Memory nodes are computed by partitioning the static memory references of a
function (the pointer operands of loads and stores) with the supplied alias
analysis: two references fall into the same node unless the analysis proves
them NoAlias.  Data-dependence edges connect operands to the instructions
that use them; loads and stores are additionally connected to the memory node
they touch, mirroring FlowTracker's construction ("an instruction such as
``a[i] = b`` creates a data dependence edge from ``b`` to the memory node
``a[i]``").
"""

from __future__ import annotations

from typing import List, Optional

from repro.alias.interface import AliasAnalysis
from repro.alias.results import AliasResult, MemoryLocation
from repro.ir.function import Function
from repro.ir.instructions import Instruction, Load, Phi, Store
from repro.ir.module import Module
from repro.ir.values import Argument, Value
from repro.pdg.graph import ProgramDependenceGraph
from repro.util.unionfind import UnionFind


def _is_ssa_variable(value: Value) -> bool:
    return isinstance(value, (Argument, Instruction))


class PDGBuilder:
    """Builds :class:`ProgramDependenceGraph` instances for functions,
    partitioning memory references with ``alias_analysis``."""

    def __init__(self, alias_analysis: AliasAnalysis) -> None:
        self.alias_analysis = alias_analysis

    # -- memory partitioning ------------------------------------------------------
    def memory_references(self, function: Function) -> List[Value]:
        """The static memory references of ``function``, in program order.

        Each load/store contributes its pointer operand once (the same SSA
        pointer used twice is still a single static reference).
        """
        references: List[Value] = []
        seen = set()
        for inst in function.instructions():
            pointer: Optional[Value] = None
            if isinstance(inst, Load):
                pointer = inst.pointer
            elif isinstance(inst, Store):
                pointer = inst.pointer
            if pointer is None or id(pointer) in seen:
                continue
            seen.add(id(pointer))
            references.append(pointer)
        return references

    def partition_references(self, function: Function) -> List[List[Value]]:
        """Group references into alias classes according to the analysis."""
        self.alias_analysis.prepare_function(function)
        references = self.memory_references(function)
        groups = UnionFind()
        for reference in references:
            groups.make_set(reference)
        # Batched queries: one MemoryLocation per reference, reused across
        # the whole pair loop.
        locations = [MemoryLocation(reference) for reference in references]
        for i, j, verdict in self.alias_analysis.alias_many(locations):
            if verdict is not AliasResult.NO_ALIAS:
                groups.union(references[i], references[j])
        return groups.groups()

    # -- graph construction ----------------------------------------------------------
    def build(self, function: Function) -> ProgramDependenceGraph:
        pdg = ProgramDependenceGraph(function.name)
        for group in self.partition_references(function):
            pdg.add_memory_node(group)
        for inst in function.instructions():
            if inst.produces_value():
                target = pdg.value_node(inst)
            else:
                target = None
            # Data dependences: operand -> user.
            for operand in inst.operands:
                if _is_ssa_variable(operand) and target is not None:
                    pdg.add_edge(pdg.value_node(operand), target, kind="data")
            # Memory dependences.
            if isinstance(inst, Load):
                node = pdg.memory_node_for(inst.pointer)
                if node is not None:
                    pdg.add_edge(node, pdg.value_node(inst), kind="memory")
            elif isinstance(inst, Store):
                node = pdg.memory_node_for(inst.pointer)
                if node is not None:
                    if _is_ssa_variable(inst.value):
                        pdg.add_edge(pdg.value_node(inst.value), node, kind="memory")
                    if _is_ssa_variable(inst.pointer):
                        pdg.add_edge(pdg.value_node(inst.pointer), node, kind="memory")
        return pdg


def build_pdg(function: Function, alias_analysis: AliasAnalysis) -> ProgramDependenceGraph:
    """Convenience wrapper: build the PDG of ``function`` with ``alias_analysis``."""
    return PDGBuilder(alias_analysis).build(function)


def count_memory_nodes(module: Module, alias_analysis: AliasAnalysis) -> int:
    """Total memory nodes over every defined function of ``module``.

    This is the metric of Figure 12: the more precise the alias analysis,
    the more memory nodes (fewer references are merged together).
    """
    builder = PDGBuilder(alias_analysis)
    total = 0
    for function in module.defined_functions():
        total += builder.build(function).memory_node_count
    return total
