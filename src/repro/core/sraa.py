"""The Strict-Relations Alias Analysis (the paper's ``sraa`` LLVM pass).

This class packages the less-than analysis plus the disambiguation criteria
of Definition 3.11 behind the common :class:`repro.alias.AliasAnalysis`
interface, so that it can be chained with the baselines (``BA + LT`` in the
paper's tables) and evaluated by the ``aa-eval`` harness.

Like the original pass, preparing a function converts it to e-SSA form (the
``vSSA`` prerequisite); the transformation preserves semantics, so this is
transparent to clients.

When constructed with a
:class:`~repro.passes.analysis_cache.FunctionAnalysisCache`, every expensive
piece of preparation (range analyses, e-SSA conversion, the constraint
solve, the disambiguator's per-value tables) is fetched from the shared
cache, so evaluating the same module repeatedly — or under several chained
configurations — computes each analysis exactly once.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.alias.interface import AliasAnalysis
from repro.alias.results import AliasResult, MemoryLocation
from repro.core.disambiguation import DisambiguationReason, PointerDisambiguator
from repro.core.lessthan.analysis import LessThanAnalysis
from repro.ir.function import Function
from repro.ir.module import Module
from repro.passes.analysis_cache import FunctionAnalysisCache


class StrictInequalityAliasAnalysis(AliasAnalysis):
    """Alias analysis based on strict less-than relations between pointers."""

    name = "lt"

    def __init__(self, subject: Optional[Union[Function, Module]] = None,
                 interprocedural: bool = True,
                 cache: Optional[FunctionAnalysisCache] = None) -> None:
        self.interprocedural = interprocedural
        self.cache = cache
        self._module_analysis: Optional[LessThanAnalysis] = None
        self._module_disambiguator: Optional[PointerDisambiguator] = None
        self._per_function: Dict[Function, PointerDisambiguator] = {}
        if isinstance(subject, Module):
            self._prepare_module(subject)
        elif isinstance(subject, Function):
            self.prepare_function(subject)

    # -- preparation -------------------------------------------------------------------
    def _prepare_module(self, module: Module) -> None:
        if self.cache is not None:
            self._module_analysis = self.cache.module_lessthan(
                module, self.interprocedural)
            self._module_disambiguator = self.cache.module_disambiguator(
                module, self.interprocedural)
            return
        analysis = LessThanAnalysis(module, build_essa=True,
                                    interprocedural=self.interprocedural)
        self._module_analysis = analysis
        self._module_disambiguator = PointerDisambiguator(analysis)

    def prepare_function(self, function: Function) -> None:
        if self._module_disambiguator is not None:
            return  # the whole module is already covered
        if function in self._per_function:
            return
        if self.cache is not None:
            self._per_function[function] = self.cache.function_disambiguator(function)
            return
        analysis = LessThanAnalysis(function, build_essa=True)
        self._per_function[function] = PointerDisambiguator(analysis)

    # -- queries ------------------------------------------------------------------------
    def _disambiguator_for(self, location: MemoryLocation) -> Optional[PointerDisambiguator]:
        if self._module_disambiguator is not None:
            return self._module_disambiguator
        pointer = location.pointer
        function = getattr(pointer, "function", None)
        if function is None:
            parent = getattr(pointer, "parent", None)
            function = parent.parent if parent is not None else None
        if function is None:
            return None
        if function not in self._per_function:
            self.prepare_function(function)
        return self._per_function.get(function)

    def alias(self, loc_a: MemoryLocation, loc_b: MemoryLocation) -> AliasResult:
        disambiguator = self._disambiguator_for(loc_a)
        if disambiguator is None:
            return AliasResult.MAY_ALIAS
        if disambiguator.no_alias(loc_a.pointer, loc_b.pointer):
            return AliasResult.NO_ALIAS
        return AliasResult.MAY_ALIAS

    def alias_many(self, locations):
        """Batched queries through :meth:`PointerDisambiguator.disambiguate_pairs`.

        One table lookup per location instead of per pair; verdicts are
        identical to issuing :meth:`alias` pair by pair.
        """
        if not locations:
            return
        disambiguators = [self._disambiguator_for(location) for location in locations]
        disambiguator = disambiguators[0]
        if disambiguator is None or any(d is not disambiguator for d in disambiguators):
            # Mixed-function or unanalysable batches take the pairwise path.
            yield from super().alias_many(locations)
            return
        pointers = [location.pointer for location in locations]
        no_alias = AliasResult.NO_ALIAS
        may_alias = AliasResult.MAY_ALIAS
        none = DisambiguationReason.NONE
        for i, j, reason in disambiguator.disambiguate_pairs(pointers):
            yield i, j, (may_alias if reason is none else no_alias)

    # -- introspection ---------------------------------------------------------------------
    @property
    def analysis(self) -> Optional[LessThanAnalysis]:
        """The underlying module-level analysis, when prepared with a module."""
        return self._module_analysis

    def disambiguators(self):
        """Every :class:`PointerDisambiguator` this analysis has built.

        The execution engine reads their statistics to report per-shard
        disambiguation work (queries, class truncation) on the coordinator.
        """
        if self._module_disambiguator is not None:
            return [self._module_disambiguator]
        return list(self._per_function.values())
