"""The alias-analysis evaluator (LLVM's ``aa-eval`` pass).

The evaluation methodology of the paper is built on ``aa-eval``: within each
function, every pair of pointer values is queried and the analysis is scored
by the fraction of pairs it reports as NoAlias.  This module reimplements
that harness: it collects the pointer values of a function, issues one query
per unordered pair, and aggregates verdict counts per function, per module
and per benchmark suite.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.alias.interface import AliasAnalysis
from repro.alias.results import AliasResult, MemoryLocation
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.values import Value
from repro.obs import TRACER


class AliasEvaluation:
    """Aggregated verdict counts for a set of alias queries."""

    def __init__(self) -> None:
        self.no_alias = 0
        self.may_alias = 0
        self.partial_alias = 0
        self.must_alias = 0

    @property
    def total_queries(self) -> int:
        return self.no_alias + self.may_alias + self.partial_alias + self.must_alias

    @property
    def no_alias_ratio(self) -> float:
        total = self.total_queries
        return self.no_alias / total if total else 0.0

    def record(self, result: AliasResult) -> None:
        if result is AliasResult.NO_ALIAS:
            self.no_alias += 1
        elif result is AliasResult.MUST_ALIAS:
            self.must_alias += 1
        elif result is AliasResult.PARTIAL_ALIAS:
            self.partial_alias += 1
        else:
            self.may_alias += 1

    def merge(self, other: "AliasEvaluation") -> "AliasEvaluation":
        merged = AliasEvaluation()
        merged.no_alias = self.no_alias + other.no_alias
        merged.may_alias = self.may_alias + other.may_alias
        merged.partial_alias = self.partial_alias + other.partial_alias
        merged.must_alias = self.must_alias + other.must_alias
        return merged

    @classmethod
    def from_codes(cls, codes: str) -> "AliasEvaluation":
        """Tally a verdict code string (:attr:`AliasResult.code` per pair)."""
        evaluation = cls()
        evaluation.no_alias = codes.count(AliasResult.NO_ALIAS.code)
        evaluation.may_alias = codes.count(AliasResult.MAY_ALIAS.code)
        evaluation.partial_alias = codes.count(AliasResult.PARTIAL_ALIAS.code)
        evaluation.must_alias = codes.count(AliasResult.MUST_ALIAS.code)
        return evaluation

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "AliasEvaluation":
        """Rebuild an evaluation from :meth:`as_dict` output.

        Only the four verdict counters are read; derived fields (``queries``,
        ``no_alias_ratio``) are recomputed.  This is the deserialization hook
        of the cross-process engine, whose workers ship verdict counts between
        processes as plain dictionaries.
        """
        evaluation = cls()
        evaluation.no_alias = int(data.get("no_alias", 0))
        evaluation.may_alias = int(data.get("may_alias", 0))
        evaluation.partial_alias = int(data.get("partial_alias", 0))
        evaluation.must_alias = int(data.get("must_alias", 0))
        return evaluation

    def as_dict(self) -> Dict[str, float]:
        return {
            "queries": self.total_queries,
            "no_alias": self.no_alias,
            "may_alias": self.may_alias,
            "partial_alias": self.partial_alias,
            "must_alias": self.must_alias,
            "no_alias_ratio": self.no_alias_ratio,
        }

    def __repr__(self) -> str:
        return "<AliasEvaluation queries={} no-alias={} ({:.1%})>".format(
            self.total_queries, self.no_alias, self.no_alias_ratio)


def collect_pointer_values(function: Function) -> List[Value]:
    """Every pointer-typed SSA value of ``function`` (arguments first)."""
    pointers: List[Value] = []
    for argument in function.arguments:
        if argument.type.is_pointer():
            pointers.append(argument)
    for inst in function.instructions():
        if inst.produces_value() and inst.type.is_pointer():
            pointers.append(inst)
    return pointers


def collect_memory_locations(function: Function,
                             size: Optional[int] = 1) -> List[MemoryLocation]:
    """One reusable :class:`MemoryLocation` per pointer value of ``function``.

    The seed evaluator allocated a fresh location per *pair* (O(n²)
    allocations); building them once here and passing the list to
    :meth:`AliasAnalysis.verdict_codes` is the batched fast path.
    """
    return [MemoryLocation(pointer, size)
            for pointer in collect_pointer_values(function)]


def evaluate_function_verdicts(function: Function, analysis: AliasAnalysis,
                               size: Optional[int] = 1) -> "Tuple[AliasEvaluation, str]":
    """Query every unordered pair of pointer values of ``function``.

    Returns ``(evaluation, codes)`` where ``codes`` is one
    :attr:`AliasResult.code` character per unordered pair in ``(i, j)``
    iteration order, and ``evaluation`` is tallied from it.  The code string
    is what the cross-process engine merges into chain verdicts, persists
    and compares to certify that pooled and store-warmed runs are
    bit-identical to the serial path.
    """
    analysis.prepare_function(function)
    locations = collect_memory_locations(function, size)
    count = len(locations)
    with TRACER.span("aaeval.verdicts", analysis=analysis.name,
                     function=function.name, pairs=count * (count - 1) // 2):
        codes = analysis.verdict_codes(locations)
    return AliasEvaluation.from_codes(codes), codes


def evaluate_function(function: Function, analysis: AliasAnalysis,
                      size: Optional[int] = 1) -> AliasEvaluation:
    """The verdict counts of :func:`evaluate_function_verdicts`."""
    return evaluate_function_verdicts(function, analysis, size)[0]


def evaluate_module(module: Module, analysis: AliasAnalysis,
                    size: Optional[int] = 1) -> AliasEvaluation:
    """Evaluate every defined function of ``module`` and sum the counts."""
    evaluation = AliasEvaluation()
    for function in module.defined_functions():
        evaluation = evaluation.merge(evaluate_function(function, analysis, size))
    return evaluation

