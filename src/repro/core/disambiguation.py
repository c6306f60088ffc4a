"""Pointer disambiguation criteria (Definition 3.11 of the paper).

Given the LT sets produced by :class:`repro.core.lessthan.LessThanAnalysis`,
two memory locations are proven disjoint when:

1. one of the pointers is strictly smaller than the other
   (``p1 ∈ LT(p2)`` or ``p2 ∈ LT(p1)``), or
2. both pointers are derived from the same base pointer and one index is
   strictly smaller than the other (``p1 = p + x1``, ``p2 = p + x2`` with
   ``x1 ∈ LT(x2)`` or ``x2 ∈ LT(x1)``), where ``x1`` and ``x2`` are
   variables, not constants.

Because the e-SSA transformation splits live ranges, the same run-time value
may be known under several SSA names (the original, its σ-copies, its
subtraction-split copies).  Copies are identity functions, so the
disambiguator considers the whole equivalence class of names when checking
the criteria — exactly like the original ``sraa`` pass, which resolves
queries through the renamed uses produced by ``vSSA``.

The class also reports *why* a pair was disambiguated, which the examples
and the evaluation harness use to break down the sources of precision.

Performance.  The ``aa-eval`` methodology issues O(n²) queries per function,
and the class-walk behind each query is invariant while the IR is unchanged.
The disambiguator therefore memoizes, per value, the canonical name, the
``(base, index)`` decomposition, and the copy-equivalence class together with
the union of the LT sets of its members.  The memoized check

``ordered(a, b)  ⇔  names(b) ∩ LT∪(a) ≠ ∅  or  names(a) ∩ LT∪(b) ≠ ∅``

is set-for-set identical to walking every name pair, so verdicts are
bit-identical to the recompute-per-query reference
(:func:`repro.verify.certificate.reference_disambiguate`, which the tests
and the throughput benchmark compare against); only the cost per query
changes.  Call :meth:`PointerDisambiguator.invalidate` after mutating the
IR.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.api.config import resolved_class_limit
from repro.core.lessthan.analysis import LessThanAnalysis
from repro.ir.instructions import Copy, GetElementPtr, Instruction
from repro.ir.values import Argument, ConstantInt, Value
from repro.obs import TRACER
from repro.util.worklist import SolverInfo


class DisambiguationReason(enum.Enum):
    """Which criterion of Definition 3.11 proved a pair disjoint."""

    NONE = "none"
    POINTERS_ORDERED = "pointers-ordered"       # criterion 1
    INDICES_ORDERED = "indices-ordered"         # criterion 2

    def __bool__(self) -> bool:
        return self is not DisambiguationReason.NONE


class DisambiguationStatistics:
    """Counters the evaluation harness reads back after a query batch.

    ``truncated_classes`` counts equivalence classes that exceeded the
    traversal limit (the members kept are chosen deterministically, but
    precision may be lost); ``largest_class`` records the biggest class seen
    before truncation.  ``solver`` carries the fixed-point solver counters
    (:class:`~repro.util.worklist.SolverInfo`) of the analyses behind the
    verdicts, so they travel with the engine's unit payloads.
    """

    def __init__(self) -> None:
        self.queries = 0
        self.truncated_classes = 0
        self.largest_class = 0
        self.memoized_values = 0
        self.solver = SolverInfo()

    def record_class(self, size: int, truncated: bool) -> None:
        self.largest_class = max(self.largest_class, size)
        if truncated:
            self.truncated_classes += 1

    def merge(self, other: "DisambiguationStatistics") -> "DisambiguationStatistics":
        """Lossless aggregation of two disambiguators' statistics.

        Counters sum; ``largest_class`` is a maximum.  Solver counters merge
        losslessly too, which is what keeps ``repro stats`` totals identical
        between serial and multi-worker runs.
        """
        merged = DisambiguationStatistics()
        merged.queries = self.queries + other.queries
        merged.truncated_classes = self.truncated_classes + other.truncated_classes
        merged.largest_class = max(self.largest_class, other.largest_class)
        merged.memoized_values = self.memoized_values + other.memoized_values
        merged.solver = self.solver.merge(other.solver)
        return merged

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "DisambiguationStatistics":
        statistics = cls()
        statistics.queries = int(data.get("queries", 0))
        statistics.truncated_classes = int(data.get("truncated_classes", 0))
        statistics.largest_class = int(data.get("largest_class", 0))
        statistics.memoized_values = int(data.get("memoized_values", 0))
        statistics.solver = SolverInfo.from_dict(data.get("solver", {}) or {})
        return statistics

    def as_dict(self) -> Dict[str, int]:
        return {
            "queries": self.queries,
            "truncated_classes": self.truncated_classes,
            "largest_class": self.largest_class,
            "memoized_values": self.memoized_values,
            "solver": self.solver.as_dict(),
        }

    def __repr__(self) -> str:
        return "<DisambiguationStatistics queries={} truncated={} largest={}>".format(
            self.queries, self.truncated_classes, self.largest_class)


def _is_variable(value: Value) -> bool:
    return isinstance(value, (Argument, Instruction)) and not isinstance(value, ConstantInt)


def canonical_value(value: Value) -> Value:
    """Strip copies and zero-offset ``gep``s to reach the canonical name."""
    current = value
    while True:
        if isinstance(current, Copy):
            current = current.source
            continue
        if isinstance(current, GetElementPtr) and current.constant_index() == 0:
            current = current.base
            continue
        return current


def _name_order_key(value: Value) -> Tuple[int, str]:
    """Deterministic, construction-order-independent ordering of SSA names.

    Names are unique within a function, and numeric suffixes (``v2`` < ``v10``)
    sort naturally thanks to the length-first key.
    """
    name = getattr(value, "name", "") or ""
    return (len(name), name)


def equivalent_names(value: Value, limit: Optional[int] = 64,
                     statistics: Optional[DisambiguationStatistics] = None) -> List[Value]:
    """All SSA names denoting the same run-time value as ``value``.

    The set contains the canonical name (copies stripped) plus every copy
    transitively derived from it.  Copies are pure renamings, so every member
    evaluates to the same value whenever it is defined.

    Classes larger than ``limit`` are truncated.  The members kept are chosen
    by a deterministic order on the names themselves (never by uses-list
    order, which varies with IR construction history), the canonical root and
    ``value`` itself are always retained, and the truncation is reported on
    ``statistics`` so callers can see when precision may have been lost.
    """
    root = canonical_value(value)
    names: List[Value] = [root]
    seen: Set[int] = {id(root)}
    index = 0
    while index < len(names):
        current = names[index]
        index += 1
        for user in current.users():
            if isinstance(user, Copy) and user.source is current and id(user) not in seen:
                seen.add(id(user))
                names.append(user)
    if id(value) not in seen:
        names.append(value)
    truncated = limit is not None and len(names) > limit
    if statistics is not None:
        statistics.record_class(len(names), truncated)
    if truncated:
        keep: List[Value] = [root]
        if value is not root and id(value) in {id(n) for n in names}:
            keep.append(value)
        kept_ids = {id(n) for n in keep}
        for name in sorted(names, key=_name_order_key):
            if len(keep) >= limit:
                break
            if id(name) not in kept_ids:
                kept_ids.add(id(name))
                keep.append(name)
        names = keep
    return names


def decompose_pointer(pointer: Value) -> Tuple[Value, Optional[Value]]:
    """Split a pointer into ``(base, index)`` when it is a derived pointer.

    Copies wrapping a ``gep`` are looked through.  Returns ``(pointer, None)``
    for pointers that are not derived from a base through pointer arithmetic.
    """
    current = pointer
    while isinstance(current, Copy):
        current = current.source
    if isinstance(current, GetElementPtr):
        return current.base, current.index
    return pointer, None


class PointerDisambiguator:
    """Answers "are these two pointers provably different?" questions.

    Per-value tables are filled on first use and reused across the whole
    O(n²) pair loop; :meth:`disambiguate_pairs` bulk-fills them for a batch
    up front, and :meth:`disambiguate` is its one-pair case.
    """

    def __init__(self, analysis: LessThanAnalysis,
                 class_limit: Optional[int] = None) -> None:
        self.analysis = analysis
        # Precedence: explicit argument > active ReproConfig >
        # REPRO_CLASS_LIMIT > default (64).  Pass 0 for "no truncation".
        if class_limit is None:
            class_limit = resolved_class_limit()
        elif class_limit <= 0:
            class_limit = None
        self.class_limit = class_limit
        self.statistics = DisambiguationStatistics()
        # Fold the fixed-point solver counters of the underlying analyses in
        # at construction: the less-than constraint solve plus every
        # per-function range solve.  They ride along with the query counters
        # through the engine's payload/merge path from here on.
        solver = analysis.statistics.solver_info()
        for range_analysis in analysis.ranges.values():
            solver = solver.merge(range_analysis.statistics.solver_info())
        self.statistics.solver = solver
        # Indexed per-value tables (identity-keyed: Values hash by identity).
        self._canonical: Dict[Value, Value] = {}
        self._decomposition: Dict[Value, Tuple[Value, Optional[Value]]] = {}
        self._names: Dict[Value, Tuple[FrozenSet[Value], FrozenSet[Value]]] = {}

    # -- table management -----------------------------------------------------------
    def invalidate(self) -> None:
        """Drop every memoized table (call after mutating the IR)."""
        self._canonical.clear()
        self._decomposition.clear()
        self._names.clear()
        self.statistics.memoized_values = 0

    # -- memoized lookups ----------------------------------------------------------
    def _canonical_of(self, value: Value) -> Value:
        cached = self._canonical.get(value)
        if cached is None:
            cached = canonical_value(value)
            self._canonical[value] = cached
        return cached

    def _decompose(self, pointer: Value) -> Tuple[Value, Optional[Value]]:
        cached = self._decomposition.get(pointer)
        if cached is None:
            cached = decompose_pointer(pointer)
            self._decomposition[pointer] = cached
        return cached

    def _class_info(self, value: Value) -> Tuple[FrozenSet[Value], FrozenSet[Value]]:
        """``(names, LT∪)``: the equivalence class of ``value`` and the union
        of the LT sets of its members."""
        cached = self._names.get(value)
        if cached is not None:
            return cached
        names = equivalent_names(value, limit=self.class_limit,
                                 statistics=self.statistics)
        lt_union: Set[Value] = set()
        lt_sets = self.analysis.lt_sets
        for name in names:
            lt_union.update(lt_sets.get(name, ()))
        info = (frozenset(names), frozenset(lt_union))
        self._names[value] = info
        self.statistics.memoized_values = len(self._names)
        return info

    # -- batched entry point ---------------------------------------------------------------
    def disambiguate_pairs(self, pointers: List[Value]):
        """Yield ``(i, j, reason)`` for every unordered pair of ``pointers``.

        The batch hoists every per-value table lookup out of the O(n²) loop,
        leaving only identity checks and frozenset operations per pair:

        * criterion 1 — the class of one pointer meets the LT∪ of the other;
        * criterion 2 — same canonical base, variable indices, and the class
          of one index meets the LT∪ of the other.
        """
        if not TRACER.enabled:
            return self._disambiguate_pairs(pointers)
        # The result is a lazily consumed generator, so a plain ``with``
        # around it would close the span before any pair is evaluated —
        # materialize inside the span instead (tracing runs only).
        with TRACER.span("disambiguate.pairs", pointers=len(pointers)) as span:
            results = list(self._disambiguate_pairs(pointers))
            span.annotate(pairs=len(results))
        return iter(results)

    def _disambiguate_pairs(self, pointers: List[Value]):
        count = len(pointers)
        canon = [self._canonical_of(p) for p in pointers]
        classes = [self._class_info(p) for p in pointers]
        decomps = [self._decompose(p) for p in pointers]
        index_class: List[Optional[Tuple[FrozenSet[Value], FrozenSet[Value]]]] = []
        base_canon: List[Optional[Value]] = []
        for base, index in decomps:
            if index is not None and _is_variable(index):
                base_canon.append(self._canonical_of(base))
                index_class.append(self._class_info(index))
            else:
                # Constant or missing index: criterion 2 never applies.
                base_canon.append(None)
                index_class.append(None)
        none = DisambiguationReason.NONE
        ordered = DisambiguationReason.POINTERS_ORDERED
        indexed = DisambiguationReason.INDICES_ORDERED
        for i in range(count):
            canon_i = canon[i]
            names_i, lt_i = classes[i]
            base_i = base_canon[i]
            index_i = index_class[i]
            for j in range(i + 1, count):
                self.statistics.queries += 1
                if canon_i is canon[j]:
                    yield i, j, none
                    continue
                names_j, lt_j = classes[j]
                if not names_j.isdisjoint(lt_i) or not names_i.isdisjoint(lt_j):
                    yield i, j, ordered
                    continue
                index_j = index_class[j]
                if (index_i is not None and index_j is not None
                        and base_i is base_canon[j]):
                    idx_names_i, idx_lt_i = index_i
                    idx_names_j, idx_lt_j = index_j
                    if (not idx_names_j.isdisjoint(idx_lt_i)
                            or not idx_names_i.isdisjoint(idx_lt_j)):
                        yield i, j, indexed
                        continue
                yield i, j, none

    # -- main entry point -----------------------------------------------------------------
    def disambiguate(self, p1: Value, p2: Value) -> DisambiguationReason:
        """Return the criterion proving ``p1`` and ``p2`` disjoint, if any."""
        _i, _j, reason = next(self._disambiguate_pairs([p1, p2]))
        return reason

    def no_alias(self, p1: Value, p2: Value) -> bool:
        return bool(self.disambiguate(p1, p2))
