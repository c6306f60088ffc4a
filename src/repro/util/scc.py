"""Tarjan's strongly-connected-components algorithm, shared infrastructure.

Both dependency condensations in the code base — the def-use graph of the
range analysis' loop residue (:mod:`repro.rangeanalysis.analysis`) and the
module call graph (:mod:`repro.ir.callgraph`) — reduce to the same
primitive: decompose a directed graph into SCCs and process the
condensation in topological order.
The implementation is iterative (no recursion-limit surprises on long
def-use chains or deep call chains) and deterministic: components come out
in a fixed order for a fixed ``nodes`` sequence and successor lists.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Set


def strongly_connected_components(nodes: Sequence[Hashable],
                                  successors: Dict[Hashable, List[Hashable]]) -> List[List[Hashable]]:
    """Tarjan's algorithm, iterative to avoid recursion limits.

    Returns the components in reverse topological order of the condensation:
    every component is emitted before the components that depend on it
    (i.e. successors first).  Callers that want dependants-first order
    reverse the result.  Components are lists of nodes.
    """
    index_counter = [0]
    indices: Dict[Hashable, int] = {}
    lowlinks: Dict[Hashable, int] = {}
    on_stack: Set[Hashable] = set()
    stack: List[Hashable] = []
    components: List[List[Hashable]] = []

    for root in nodes:
        if root in indices:
            continue
        work = [(root, iter(successors.get(root, [])))]
        indices[root] = lowlinks[root] = index_counter[0]
        index_counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, succ_iter = work[-1]
            advanced = False
            for succ in succ_iter:
                if succ not in indices:
                    indices[succ] = lowlinks[succ] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(successors.get(succ, []))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlinks[node] = min(lowlinks[node], indices[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
            if lowlinks[node] == indices[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member is node:
                        break
                components.append(component)
    return components
