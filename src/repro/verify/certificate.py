"""Fixpoint certificate checkers and the NoAlias verdict audit.

The solvers are fast because they are clever (sparse worklists, SCC
condensation); the checkers here are trustworthy because they are
dumb.  Each one re-derives an artifact with the most naive machinery
available and compares:

* **range certificate** — the solved interval state is a *post-fixpoint*:
  re-applying every transfer function once, using only the plain
  :class:`~repro.rangeanalysis.interval.Interval` methods (no worklists, no
  SCC schedule), must produce a result the stored interval ``includes``.  A
  sound over-approximating fixpoint is inductive in exactly this sense,
  whichever solver produced it.

* **less-than certificate** — the final LT sets satisfy every constraint:
  ``LT(target) ⊆ constraint.evaluate(lt_sets)`` for each generated
  constraint (the descending-meet fixpoint property), and no variable owns a
  non-empty LT set without a generating constraint.  Together with induction
  over the constraint system this justifies every reported ``x < y`` edge by
  a constraint or a transitive chain of them.

* **verdict audit** — every pair the production disambiguator reports as
  NoAlias is re-justified from first principles: the copy-equivalence
  classes are re-walked without memoization or truncation
  (``equivalent_names(limit=None)``) and the strict-inequality witness is
  looked up directly in the certified LT sets.  The production
  disambiguator's statistics are snapshotted around the audit so verified
  and unverified runs stay byte-identical in every report.

All checkers append :class:`~repro.verify.diagnostics.Diagnostic`s naming
the offending function and value; none of them mutate analysis state.
"""

from __future__ import annotations

import bisect
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set

from repro.alias.aaeval import collect_pointer_values
from repro.core.disambiguation import (
    DisambiguationReason,
    PointerDisambiguator,
    _is_variable,
    canonical_value,
    decompose_pointer,
    equivalent_names,
)
from repro.core.lessthan.constraints import Constraint, TOP
from repro.ir.function import Function
from repro.ir.instructions import BinaryOp, Copy, GetElementPtr, ICmp, Load, Phi
from repro.ir.values import Argument, ConstantInt, Undef, Value
from repro.obs import TRACER
from repro.rangeanalysis.analysis import RangeAnalysis
from repro.rangeanalysis.interval import Interval
from repro.verify.diagnostics import VerificationReport


def _value_name(value: Value) -> str:
    return getattr(value, "name", "") or ""


def _short(value: Value) -> str:
    try:
        return value.short_name()
    except Exception:
        return repr(value)


def _function_name(value: Value) -> str:
    function = getattr(value, "function", None)
    return getattr(function, "name", "") or ""


# ---------------------------------------------------------------------------
# Range certificate
# ---------------------------------------------------------------------------

def _operand_range(value: Value, ranges: Dict[Value, Interval]) -> Interval:
    if isinstance(value, ConstantInt):
        return Interval.constant(value.value)
    if isinstance(value, Undef):
        return Interval.top()
    return ranges.get(value, Interval.top())


def _refine_sigma(copy: Copy, source_range: Interval,
                  ranges: Dict[Value, Interval]) -> Interval:
    condition = getattr(copy, "sigma_condition", None)
    if not isinstance(condition, ICmp):
        return source_range
    side = getattr(copy, "sigma_operand_side", None)
    on_true = getattr(copy, "sigma_on_true_branch", True)
    lhs_range = _operand_range(condition.lhs, ranges)
    rhs_range = _operand_range(condition.rhs, ranges)
    predicate = condition.predicate
    if not on_true:
        predicate = ICmp.NEGATED[predicate]
    if side == "lhs":
        mine, other = source_range, rhs_range
    elif side == "rhs":
        mine, other = source_range, lhs_range
        predicate = ICmp.SWAPPED[predicate]
    else:
        return source_range
    if predicate == "slt":
        return mine.refine_less_than(other)
    if predicate == "sle":
        return mine.refine_less_equal(other)
    if predicate == "sgt":
        return mine.refine_greater_than(other)
    if predicate == "sge":
        return mine.refine_greater_equal(other)
    if predicate == "eq":
        return mine.refine_equal(other)
    return mine


def recompute_transfer(value: Value, ranges: Dict[Value, Interval],
                       argument_ranges: Dict[Argument, Interval]) -> Interval:
    """One application of ``value``'s transfer function over ``ranges``.

    Semantically identical to ``RangeAnalysis._evaluate`` but independent of
    it: plain ``Interval`` methods over a plain dict, with no statistics or
    worklists involved — the reference the solved state is checked against.
    """
    if isinstance(value, Argument):
        return argument_ranges.get(value, Interval.top())
    if isinstance(value, ConstantInt):
        return Interval.constant(value.value)
    if isinstance(value, BinaryOp):
        lhs = _operand_range(value.lhs, ranges)
        rhs = _operand_range(value.rhs, ranges)
        if value.op == "add":
            return lhs.add(rhs)
        if value.op == "sub":
            return lhs.sub(rhs)
        if value.op == "mul":
            return lhs.mul(rhs)
        if value.op == "div":
            return lhs.div(rhs)
        if value.op == "rem":
            return lhs.rem(rhs)
        return Interval.top()
    if isinstance(value, Phi):
        result = Interval.bottom()
        for incoming, _block in value.incoming():
            result = result.join(_operand_range(incoming, ranges))
        return result
    if isinstance(value, Copy):
        return _refine_sigma(value, _operand_range(value.source, ranges), ranges)
    return Interval.top()


def check_range_certificate(function: Function, analysis: RangeAnalysis,
                            report: VerificationReport) -> None:
    """Assert the solved interval state of ``function`` is inductive."""
    ranges = analysis.ranges
    argument_ranges = analysis.argument_ranges
    report.bump("range", len(ranges))
    for value, interval in ranges.items():
        recomputed = recompute_transfer(value, ranges, argument_ranges)
        if not interval.includes(recomputed):
            report.add(
                "range", "error", function.name, _value_name(value),
                "stored range {} of {} does not include its recomputed "
                "transfer result {} — the fixpoint is not inductive".format(
                    interval, _short(value), recomputed))


# ---------------------------------------------------------------------------
# Less-than certificate
# ---------------------------------------------------------------------------

def check_lt_certificate(constraints: Sequence[Constraint],
                         lt_sets: Dict[Value, FrozenSet[Value]],
                         report: VerificationReport) -> None:
    """Assert the final LT sets satisfy every generated constraint."""
    targets: Set[Value] = set()
    report.bump("lt", len(constraints))
    for constraint in constraints:
        targets.add(constraint.target)
        evaluated = constraint.evaluate(lt_sets)
        if evaluated is TOP:
            # Only reachable through a residual-TOP source, which the solver
            # projects to the empty set; the orphan check below still guards
            # the target's own entries.
            continue
        actual = lt_sets.get(constraint.target, frozenset())
        unjustified = actual - evaluated  # type: ignore[operator]
        if not unjustified:
            continue
        shown = sorted(unjustified, key=_value_name)[:3]
        for member in shown:
            report.add(
                "lt", "error", _function_name(constraint.target),
                _value_name(constraint.target),
                "LT({}) claims {} < {} but its constraint [{}] does not "
                "justify it".format(
                    _short(constraint.target), _short(member),
                    _short(constraint.target), constraint.describe()))
        if len(unjustified) > len(shown):
            report.add(
                "lt", "error", _function_name(constraint.target),
                _value_name(constraint.target),
                "LT({}) holds {} more unjustified members".format(
                    _short(constraint.target), len(unjustified) - len(shown)))
    for value, lt_set in lt_sets.items():
        if lt_set and value not in targets:
            report.add(
                "lt", "error", _function_name(value), _value_name(value),
                "LT({}) is non-empty but no constraint targets it".format(
                    _short(value)))


# ---------------------------------------------------------------------------
# NoAlias verdict audit
# ---------------------------------------------------------------------------

def _ordered_witness(a: Value, b: Value,
                     lt_sets: Dict[Value, FrozenSet[Value]],
                     limit: Optional[int] = None,
                     classes: Optional[Dict[Value, Set[Value]]] = None) -> bool:
    """``∃ na ∈ names(a), nb ∈ names(b): na < nb or nb < na`` — from scratch.

    Classes are walked afresh, never read from the production tables;
    ``classes`` keeps the walks of one caller (for one ``limit``) so each
    value is walked once.  The audit passes no ``limit``: truncation can
    only lose legitimate witnesses, never invent one, so the unlimited walk
    accepts everything the production tables could justify.
    :func:`reference_disambiguate` passes the production limit to reproduce
    its verdicts exactly.
    """
    classes = {} if classes is None else classes
    for value in (a, b):
        if value not in classes:
            classes[value] = set(equivalent_names(value, limit=limit))
    names_a, names_b = classes[a], classes[b]
    lt_a: Set[Value] = set()
    for name in names_a:
        lt_a.update(lt_sets.get(name, ()))
    if not names_b.isdisjoint(lt_a):
        return True
    lt_b: Set[Value] = set()
    for name in names_b:
        lt_b.update(lt_sets.get(name, ()))
    return not names_a.isdisjoint(lt_b)


def reference_disambiguate(p1: Value, p2: Value,
                           lt_sets: Dict[Value, FrozenSet[Value]],
                           limit: Optional[int] = None) -> DisambiguationReason:
    """Definition 3.11 recomputed per query, with no tables.

    The reference the memoized :class:`PointerDisambiguator` is compared
    against: with ``limit`` set to its ``class_limit``, the reasons are
    identical pair for pair.
    """
    if canonical_value(p1) is canonical_value(p2):
        return DisambiguationReason.NONE
    if _ordered_witness(p1, p2, lt_sets, limit):
        return DisambiguationReason.POINTERS_ORDERED
    base1, index1 = decompose_pointer(p1)
    base2, index2 = decompose_pointer(p2)
    # Criterion 2 requires variable indices; constant offsets are the job
    # of range-based analyses (and of basicaa).
    if (index1 is not None and index2 is not None
            and canonical_value(base1) is canonical_value(base2)
            and _is_variable(index1) and _is_variable(index2)
            and _ordered_witness(index1, index2, lt_sets, limit)):
        return DisambiguationReason.INDICES_ORDERED
    return DisambiguationReason.NONE


def audit_verdicts(function: Function, disambiguator: PointerDisambiguator,
                   lt_sets: Dict[Value, FrozenSet[Value]],
                   report: VerificationReport) -> None:
    """Re-justify every NoAlias verdict of ``function`` from first principles."""
    pointers = collect_pointer_values(function)
    if len(pointers) < 2:
        return
    # The production disambiguator is queried as an oracle only: snapshot
    # its statistics and suppress tracing so a verified run stays
    # byte-identical to an unverified one in every report and timeline.
    statistics = disambiguator.statistics
    snapshot = (statistics.queries, statistics.truncated_classes,
                statistics.largest_class, statistics.memoized_values)
    try:
        with TRACER.suppress():
            claims = disambiguator.pair_reasons(pointers)
    finally:
        (statistics.queries, statistics.truncated_classes,
         statistics.largest_class, statistics.memoized_values) = snapshot
    classes: Dict[Value, Set[Value]] = {}
    report.bump("verdict", len(claims))
    # Only the proven pairs are audited; map each position back to (i, j).
    row_starts = [i * len(pointers) - i * (i + 1) // 2 for i in range(len(pointers))]
    for position, reason in sorted(claims.items()):
        i = bisect.bisect_right(row_starts, position) - 1
        j = position - row_starts[i] + i + 1
        p_a, p_b = pointers[i], pointers[j]
        if canonical_value(p_a) is canonical_value(p_b):
            report.add(
                "verdict", "error", function.name, _value_name(p_a),
                "NoAlias claimed for {} and {} although both name the same "
                "canonical pointer".format(_short(p_a), _short(p_b)))
            continue
        if reason is DisambiguationReason.POINTERS_ORDERED:
            if not _ordered_witness(p_a, p_b, lt_sets, classes=classes):
                report.add(
                    "verdict", "error", function.name, _value_name(p_a),
                    "NoAlias({}, {}) claims the pointers are strictly "
                    "ordered but no LT witness exists in any equivalence "
                    "class".format(_short(p_a), _short(p_b)))
            continue
        # INDICES_ORDERED: same base, strictly ordered variable indices.
        base_a, index_a = decompose_pointer(p_a)
        base_b, index_b = decompose_pointer(p_b)
        if index_a is None or index_b is None:
            report.add(
                "verdict", "error", function.name, _value_name(p_a),
                "NoAlias({}, {}) claims ordered indices but at least one "
                "pointer has no index".format(_short(p_a), _short(p_b)))
            continue
        if canonical_value(base_a) is not canonical_value(base_b):
            report.add(
                "verdict", "error", function.name, _value_name(p_a),
                "NoAlias({}, {}) claims ordered indices over different base "
                "pointers".format(_short(p_a), _short(p_b)))
            continue
        if not (_is_variable(index_a) and _is_variable(index_b)):
            report.add(
                "verdict", "error", function.name, _value_name(p_a),
                "NoAlias({}, {}) claims ordered indices but an index is not "
                "a variable".format(_short(p_a), _short(p_b)))
            continue
        if not _ordered_witness(index_a, index_b, lt_sets, classes=classes):
            report.add(
                "verdict", "error", function.name, _value_name(index_a),
                "NoAlias({}, {}) claims indices {} and {} are strictly "
                "ordered but no LT witness exists".format(
                    _short(p_a), _short(p_b), _short(index_a),
                    _short(index_b)))
