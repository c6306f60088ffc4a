"""The Strict-Relations Alias Analysis (the paper's ``sraa`` LLVM pass).

This class packages the less-than analysis plus the disambiguation criteria
of Definition 3.11 behind the common :class:`repro.alias.AliasAnalysis`
interface, so that it can be chained with the baselines (``BA + LT`` in the
paper's tables) and evaluated by the ``aa-eval`` harness.

An instance is bound to one module: construction solves the module's
less-than analysis, which converts every defined function to e-SSA form
(the ``vSSA`` prerequisite) in place; the transformation preserves
semantics, so this is transparent to clients.  The analysis and its
disambiguator come from a
:class:`~repro.passes.analysis_cache.FunctionAnalysisCache` — the caller's,
or a private one — so evaluating the same module repeatedly, or under
several chained configurations, computes each analysis exactly once.
"""

from __future__ import annotations

from typing import Optional

from repro.alias.interface import AliasAnalysis
from repro.alias.results import AliasResult, MemoryLocation
from repro.ir.module import Module
from repro.passes.analysis_cache import FunctionAnalysisCache


class StrictInequalityAliasAnalysis(AliasAnalysis):
    """Alias analysis based on strict less-than relations between pointers.

    :attr:`analysis` is the module's solved
    :class:`~repro.core.lessthan.analysis.LessThanAnalysis` and
    :attr:`disambiguator` the
    :class:`~repro.core.disambiguation.PointerDisambiguator` over it.
    """

    name = "lt"

    def __init__(self, module: Module,
                 cache: Optional[FunctionAnalysisCache] = None) -> None:
        if cache is None:
            cache = FunctionAnalysisCache()
        self.analysis = cache.module_lessthan(module)
        self.disambiguator = cache.module_disambiguator(module)

    def alias(self, loc_a: MemoryLocation, loc_b: MemoryLocation) -> AliasResult:
        if self.disambiguator.no_alias(loc_a.pointer, loc_b.pointer):
            return AliasResult.NO_ALIAS
        return AliasResult.MAY_ALIAS

    def verdict_codes(self, locations) -> str:
        """``"M"`` per pair, with ``"N"`` at the positions
        :meth:`PointerDisambiguator.pair_reasons` proves disjoint."""
        count = len(locations)
        codes = bytearray(b"M" * (count * (count - 1) // 2))
        for position in self.disambiguator.pair_reasons(
                [location.pointer for location in locations]):
            codes[position] = ord("N")
        return codes.decode()
