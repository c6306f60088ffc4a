"""The basic alias analysis (``BA`` in the paper, LLVM's ``basicaa``).

A stateless collection of heuristics that resolve the majority of easy
queries, mostly by tracking every pointer back to the object it was derived
from:

* pointers rooted at *different* allocation sites (``alloca``, ``malloc``,
  globals) never alias;
* a function-local allocation whose address is taken inside the function
  never aliases an incoming pointer argument;
* the null pointer aliases nothing;
* two pointers derived from the same base with *constant* offsets alias only
  when their access windows overlap — equal offsets are a must-alias,
  disjoint windows are a no-alias.

The strict-inequality analysis is deliberately complementary to these rules:
BA knows nothing about *variable* offsets, which is exactly where the
less-than analysis contributes (Section 3.6 of the paper).

Bulk queries decompose each pointer once into ``(object, constant offset)``
and classify its object into one of five kinds.  For two *distinct* objects
the verdict depends only on the pair of kinds (the ``_DISTINCT`` table), so
one precomputed row string per kind answers every pair of a batch; only the
pairs that share an object go through the constant-offset rule.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.alias.interface import AliasAnalysis
from repro.alias.results import AliasResult, MemoryLocation
from repro.ir.instructions import Alloca, Call, Copy, GetElementPtr, Load, Malloc
from repro.ir.values import Argument, GlobalVariable, NullPointer, Value


def underlying_object_and_offset(pointer: Value) -> Tuple[Value, Optional[int]]:
    """Walk ``gep`` and ``copy`` chains back to the underlying object.

    Returns the object plus the accumulated constant offset, or ``None`` for
    the offset as soon as a non-constant index is crossed.
    """
    current = pointer
    offset: Optional[int] = 0
    while True:
        if isinstance(current, GetElementPtr):
            index = current.constant_index()
            if offset is not None and index is not None:
                offset += index
            else:
                offset = None
            current = current.base
            continue
        if isinstance(current, Copy):
            current = current.source
            continue
        return current, offset


#: Object kinds, one character each so a batch's kinds form a string.
_NULL, _LOCAL, _GLOBAL, _ESCAPED, _OTHER = _KINDS = "01234"

#: The verdict code for pointers into two *distinct* objects, by kind:
#: ``kind_b.translate(_DISTINCT[kind_a])``.
#:
#: * the null pointer aliases no other object;
#: * two distinct identified objects (local or global storage) never overlap;
#: * a local allocation never aliases a pointer that flowed in from the
#:   caller or out of memory (argument, load, call result): its address has
#:   not escaped through those channels within well-formed programs.
#:
#: ============  ====  =====  ======  =======  =====
#:  a \ b        null  local  global  escaped  other
#: ============  ====  =====  ======  =======  =====
#:  null          N     N      N       N        N
#:  local         N     N      N       N        M
#:  global        N     N      N       M        M
#:  escaped       N     N      M       M        M
#:  other         N     M      M       M        M
#: ============  ====  =====  ======  =======  =====
_DISTINCT = {kind: str.maketrans(_KINDS, row) for kind, row in zip(
    _KINDS, ("NNNNN", "NNNNM", "NNNMM", "NNMMM", "NMMMM"))}


def _object_kind(obj: Value) -> str:
    if isinstance(obj, NullPointer):
        return _NULL
    if isinstance(obj, (Alloca, Malloc)):
        return _LOCAL
    if isinstance(obj, GlobalVariable):
        return _GLOBAL
    if isinstance(obj, (Argument, Load, Call)):
        return _ESCAPED
    return _OTHER


class BasicAliasAnalysis(AliasAnalysis):
    """Stateless heuristics in the spirit of LLVM's ``basicaa``."""

    name = "basicaa"

    def alias(self, loc_a: MemoryLocation, loc_b: MemoryLocation) -> AliasResult:
        obj_a, off_a = underlying_object_and_offset(loc_a.pointer)
        obj_b, off_b = underlying_object_and_offset(loc_b.pointer)
        if obj_a is obj_b:
            code = self._same_object(loc_a, loc_b, off_a, off_b)
        else:
            code = _object_kind(obj_b).translate(_DISTINCT[_object_kind(obj_a)])
        return AliasResult.from_code(code)

    def verdict_codes(self, locations: Sequence[MemoryLocation]) -> str:
        """Row ``i`` is a slice of the precomputed row of its object's kind;
        only the pairs sharing an object are patched, one by one."""
        count = len(locations)
        offsets: List[Optional[int]] = []
        kinds: List[str] = []
        buckets: Dict[Value, List[int]] = {}
        for position, location in enumerate(locations):
            obj, offset = underlying_object_and_offset(location.pointer)
            offsets.append(offset)
            kinds.append(_object_kind(obj))
            buckets.setdefault(obj, []).append(position)
        kind_string = "".join(kinds)
        kind_rows = {kind: kind_string.translate(_DISTINCT[kind])
                     for kind in set(kinds)}
        rows = [kind_rows[kinds[i]][i + 1:] for i in range(count)]
        same_object = self._same_object
        for members in buckets.values():
            for rank, i in enumerate(members[:-1], 1):
                row = list(rows[i])
                loc_i, off_i = locations[i], offsets[i]
                for j in members[rank:]:
                    row[j - i - 1] = same_object(loc_i, locations[j],
                                                 off_i, offsets[j])
                rows[i] = "".join(row)
        return "".join(rows)

    @staticmethod
    def _same_object(loc_a: MemoryLocation, loc_b: MemoryLocation,
                     off_a: Optional[int], off_b: Optional[int]) -> str:
        """The code for two pointers into the same object: compare their
        constant offsets."""
        if loc_a.pointer is loc_b.pointer:
            return "U"
        if off_a is None or off_b is None:
            return "M"
        if off_a == off_b:
            return "U"
        size_a, size_b = loc_a.size, loc_b.size
        if size_a is None or size_b is None:
            return "M"
        # Disjoint access windows [off, off + size) never overlap.
        if off_a + size_a <= off_b or off_b + size_b <= off_a:
            return "N"
        return "P"
