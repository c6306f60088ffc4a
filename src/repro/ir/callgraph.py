"""Module call graphs and per-function content hashes.

* :class:`CallGraph` — the direct-call graph over a module's defined
  functions (``Call`` instructions name their callee statically), condensed
  into SCCs with the shared Tarjan machinery so recursion — self or mutual —
  is handled exactly.  ``repro stats`` reports its shape.

* :class:`ModuleFingerprints` — the *own hash* of every function: SHA-256
  of its printed IR.  It changes iff the function's own body (or signature)
  changes; call sites embed the callee *name*, so re-pointing a call
  changes the caller's own hash too.
  :meth:`repro.passes.analysis_cache.FunctionAnalysisCache.refresh` diffs
  these against the previous compile of the same module name to report
  which functions an edit dirtied.

Own hashes are derived from printed IR text, which the deterministic
frontend reproduces bit-identically across processes and runs.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Set

from repro.ir.function import Function
from repro.ir.instructions import Call
from repro.ir.module import Module
from repro.ir.printer import print_function
from repro.util.scc import strongly_connected_components


def function_own_hash(function: Function) -> str:
    """SHA-256 of the function's printed IR (its *own* content address)."""
    return hashlib.sha256(print_function(function).encode("utf-8")).hexdigest()


class CallGraph:
    """The direct-call graph over ``module``'s defined functions.

    Nodes are function *names* (names are unique within a module and survive
    recompilation, unlike object identities).  Calls to declared-but-undefined
    functions contribute no edge — the callee has no body, and its name is
    already part of the caller's own hash via the printed call.
    """

    def __init__(self, module: Module) -> None:
        self.module = module
        self.nodes: List[str] = []
        self.callees: Dict[str, List[str]] = {}
        self.callers: Dict[str, List[str]] = {}
        defined: Set[str] = set()
        for function in module.defined_functions():
            self.nodes.append(function.name)
            defined.add(function.name)
            self.callees[function.name] = []
            self.callers.setdefault(function.name, [])
        for function in module.defined_functions():
            seen: Set[str] = set()
            for inst in function.instructions():
                if not isinstance(inst, Call):
                    continue
                callee = inst.callee.name
                if callee not in defined or callee in seen:
                    continue
                seen.add(callee)
                self.callees[function.name].append(callee)
                self.callers.setdefault(callee, []).append(function.name)
        for name in self.nodes:
            self.callees[name].sort()
            self.callers[name].sort()

    def components(self) -> List[List[str]]:
        """SCCs in callee-first topological order (dependencies first).

        Tarjan emits the condensation in reverse topological order along the
        ``callees`` edge direction, i.e. every component after all components
        it calls into.
        """
        return strongly_connected_components(self.nodes, self.callees)

    def __repr__(self) -> str:
        edges = sum(len(callees) for callees in self.callees.values())
        return "<CallGraph {} functions, {} edges>".format(len(self.nodes), edges)


class ModuleFingerprints:
    """The own hash of every defined function of one module snapshot."""

    __slots__ = ("own",)

    def __init__(self, module: Module) -> None:
        self.own: Dict[str, str] = {
            function.name: function_own_hash(function)
            for function in module.defined_functions()}

    def __repr__(self) -> str:
        return "<ModuleFingerprints {} functions>".format(len(self.own))


def module_fingerprints(module: Module) -> ModuleFingerprints:
    """Fingerprint ``module``'s current state (a pure function of its IR)."""
    return ModuleFingerprints(module)
