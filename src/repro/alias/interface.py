"""The abstract alias-analysis interface and the chaining combinator."""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.alias.results import AliasResult, MemoryLocation
from repro.ir.function import Function

#: The code of the one verdict a chain asks past (:attr:`AliasResult.code`).
_MAY_CODE = AliasResult.MAY_ALIAS.code


def chain_codes(streams: Sequence[str]) -> str:
    """The chain rule over member verdict streams: the first definitive
    answer wins.

    ``streams`` are code strings (:meth:`AliasAnalysis.verdict_codes`) over
    the same pairs, in chain order.  At every position the first code other
    than MayAlias wins, exactly like :meth:`AliasAnalysisChain.alias`.  The
    chain combinator and the execution engine both merge through this
    function.
    """
    merged = streams[0]
    for codes in streams[1:]:
        if _MAY_CODE not in merged:
            break
        merged = "".join([first if first != _MAY_CODE else later
                          for first, later in zip(merged, codes)])
    return merged


class AliasAnalysis:
    """Interface of every alias analysis in this project.

    Subclasses implement :meth:`alias`.  ``prepare_function`` is called once
    per function before queries are issued, which lets analyses that need a
    whole-function (or whole-module) precomputation build their data
    structures lazily.

    :meth:`verdict_codes` is the one bulk primitive: it answers every
    unordered pair of a batch as a code string.  Its default asks
    :meth:`alias` pair by pair; analyses with per-pointer tables override it
    to answer the batch without a per-pair Python call.  :meth:`alias_many`
    decodes that string.
    """

    name = "alias-analysis"

    def prepare_function(self, function: Function) -> None:
        """Hook called before queries about ``function`` are made."""

    def alias(self, loc_a: MemoryLocation, loc_b: MemoryLocation) -> AliasResult:
        raise NotImplementedError  # pragma: no cover - interface

    def verdict_codes(self, locations: Sequence[MemoryLocation]) -> str:
        """The verdicts over ``locations`` as a code string.

        One :attr:`AliasResult.code` character per unordered pair, in
        ``(i, j)`` order (``i < j``, row by row).  This is what the
        ``aa-eval`` harness asks, what the execution engine merges into chain
        verdicts and persists, and what :meth:`alias_many` decodes.  Codes
        are identical to issuing :meth:`alias` pair by pair.
        """
        alias = self.alias
        count = len(locations)
        return "".join([alias(locations[i], locations[j]).code
                        for i in range(count) for j in range(i + 1, count)])

    def alias_many(self, locations: Sequence[MemoryLocation]) \
            -> Iterator[Tuple[int, int, AliasResult]]:
        """Bulk query: yield ``(i, j, verdict)`` for every unordered pair,
        decoded from :meth:`verdict_codes` (the PDG builder's entry point)."""
        codes = iter(self.verdict_codes(locations))
        from_code = AliasResult.from_code
        count = len(locations)
        for i in range(count):
            for j in range(i + 1, count):
                yield i, j, from_code(next(codes))

    # Convenience entry point used by tests and examples.
    def alias_values(self, a, b, size: Optional[int] = 1) -> AliasResult:
        return self.alias(MemoryLocation(a, size), MemoryLocation(b, size))

    def __repr__(self) -> str:
        return "<{} {}>".format(type(self).__name__, self.name)


class AliasAnalysisChain(AliasAnalysis):
    """Combine several analyses: the first definitive answer wins.

    This models the evaluation methodology of the paper, where the authors
    report ``BA``, ``LT``, ``BA + LT`` and ``BA + CF`` — each "+" being a
    chain that asks the basic analysis first and falls back to the other.
    """

    def __init__(self, analyses: Sequence[AliasAnalysis], name: Optional[str] = None) -> None:
        if not analyses:
            raise ValueError("an alias analysis chain needs at least one analysis")
        self.analyses: List[AliasAnalysis] = list(analyses)
        self.name = name or " + ".join(a.name for a in self.analyses)

    def prepare_function(self, function: Function) -> None:
        for analysis in self.analyses:
            analysis.prepare_function(function)

    def alias(self, loc_a: MemoryLocation, loc_b: MemoryLocation) -> AliasResult:
        result = AliasResult.MAY_ALIAS
        for analysis in self.analyses:
            result = result.merge(analysis.alias(loc_a, loc_b))
            if result is not AliasResult.MAY_ALIAS:
                return result
        return result

    def verdict_codes(self, locations: Sequence[MemoryLocation]) -> str:
        """Every member answers the whole batch; :func:`chain_codes` merges
        the streams position by position."""
        return chain_codes([analysis.verdict_codes(locations)
                            for analysis in self.analyses])
