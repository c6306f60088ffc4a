"""Alias query verdicts and memory locations."""

from __future__ import annotations

import enum
from typing import Optional

from repro.ir.values import Value


class AliasResult(enum.Enum):
    """The possible answers to the query "may these two locations overlap?".

    The meanings follow LLVM:

    * ``NO_ALIAS`` — the locations never overlap (at any program point where
      both pointers are simultaneously alive, for the strict-inequality
      analysis; see Section 3.5 of the paper for this nuance).
    * ``MAY_ALIAS`` — the analysis cannot prove anything.
    * ``PARTIAL_ALIAS`` — the locations overlap but do not start at the same
      address.
    * ``MUST_ALIAS`` — the locations are provably identical.
    """

    NO_ALIAS = "NoAlias"
    MAY_ALIAS = "MayAlias"
    PARTIAL_ALIAS = "PartialAlias"
    MUST_ALIAS = "MustAlias"

    def __str__(self) -> str:
        return self.value

    @property
    def is_no_alias(self) -> bool:
        return self is AliasResult.NO_ALIAS

    @property
    def code(self) -> str:
        """One-character encoding used by the cross-process engine.

        Verdict streams are serialized as compact strings so that per-pair
        results can be compared bit-for-bit between serial, pooled and
        store-warmed evaluation runs (and persisted cheaply).
        """
        return _RESULT_CODES[self]

    @staticmethod
    def from_code(code: str) -> "AliasResult":
        return _RESULTS_BY_CODE[code]

    def merge(self, other: "AliasResult") -> "AliasResult":
        """Combine the verdicts of two analyses on the same query.

        ``NO_ALIAS`` and ``MUST_ALIAS`` are definitive; ``MAY_ALIAS`` defers
        to the other verdict.  This mirrors how LLVM chains alias analyses:
        the first analysis that returns something other than MayAlias wins.
        """
        if self is AliasResult.MAY_ALIAS:
            return other
        return self


_RESULT_CODES = {
    AliasResult.NO_ALIAS: "N",
    AliasResult.MAY_ALIAS: "M",
    AliasResult.PARTIAL_ALIAS: "P",
    AliasResult.MUST_ALIAS: "U",
}

_RESULTS_BY_CODE = {code: result for result, code in _RESULT_CODES.items()}


class MemoryLocation:
    """A memory access: the pointer plus an optional access size in elements.

    ``size`` is expressed in abstract elements (our IR's unit of pointer
    arithmetic).  ``None`` means the size is unknown.
    """

    __slots__ = ("pointer", "size")

    def __init__(self, pointer: Value, size: Optional[int] = 1) -> None:
        if not pointer.type.is_pointer():
            raise TypeError("MemoryLocation requires a pointer value, got {}".format(pointer.type))
        self.pointer = pointer
        self.size = size

    @staticmethod
    def for_load(load) -> "MemoryLocation":
        return MemoryLocation(load.pointer, 1)

    @staticmethod
    def for_store(store) -> "MemoryLocation":
        return MemoryLocation(store.pointer, 1)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MemoryLocation)
            and other.pointer is self.pointer
            and other.size == self.size
        )

    def __hash__(self) -> int:
        return hash((id(self.pointer), self.size))

    def __repr__(self) -> str:
        return "MemoryLocation(%{}, size={})".format(self.pointer.name, self.size)
