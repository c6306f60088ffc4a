"""Alias-analysis framework and baseline analyses.

The framework mirrors LLVM's: an :class:`AliasResult` verdict, a
:class:`MemoryLocation` abstraction of a pointer access, an abstract
:class:`AliasAnalysis` interface, a chaining combinator
(:class:`AliasAnalysisChain`) that mimics how LLVM stacks analyses, and the
``aa-eval`` style evaluator used throughout the paper's measurements.

Baselines:

* :class:`BasicAliasAnalysis` — the heuristics of LLVM's ``basicaa`` (BA in
  the paper): distinct allocation sites, distinct globals, constant GEP
  offsets from the same base, null pointers.
* :class:`AndersenAliasAnalysis` — an inclusion-based points-to analysis,
  standing in for the CFL-based analysis (CF) the paper compares against.
* :class:`SteensgaardAliasAnalysis` — a unification-based points-to
  analysis, provided as an additional classic baseline.
* :class:`TypeBasedAliasAnalysis` — the C rule that pointers to different
  scalar types do not alias.
"""

from repro.alias.results import AliasResult, MemoryLocation
from repro.alias.interface import AliasAnalysis, AliasAnalysisChain
from repro.alias.basicaa import BasicAliasAnalysis
from repro.alias.andersen import AndersenAliasAnalysis, AndersenPointsTo
from repro.alias.steensgaard import SteensgaardAliasAnalysis
from repro.alias.tbaa import TypeBasedAliasAnalysis
from repro.alias.aaeval import (
    AliasEvaluation,
    AliasEvaluator,
    collect_memory_locations,
    evaluate_function,
    evaluate_module,
)

__all__ = [
    "AliasResult",
    "MemoryLocation",
    "AliasAnalysis",
    "AliasAnalysisChain",
    "BasicAliasAnalysis",
    "AndersenAliasAnalysis",
    "AndersenPointsTo",
    "SteensgaardAliasAnalysis",
    "TypeBasedAliasAnalysis",
    "AliasEvaluation",
    "AliasEvaluator",
    "collect_memory_locations",
    "evaluate_function",
    "evaluate_module",
]
