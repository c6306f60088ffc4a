"""Constraint generation (Figure 7 of the paper).

The generator walks the e-SSA functions of a module and emits one
constraint per SSA variable.  Constraint generation is linear in the number
of variables, which is the property the scalability experiment (Figure 11)
measures: the number of constraints grows linearly with the number of
instructions.

The rules, matching Figure 7 (with the straightforward generalisation to all
comparison predicates and to pointer arithmetic through ``gep``):

1. ``x = •``                     → ``LT(x) = ∅``
2. ``x1 = x2 + n`` (n > 0)       → ``LT(x1) = {x2} ∪ LT(x2)``
3. ``x1 = x2 - n ‖ ⟨x3 = x2⟩``   → ``LT(x3) = {x1} ∪ LT(x2)``, ``LT(x1) = ∅``
4. ``x = φ(x1, ..., xn)``        → ``LT(x) = LT(x1) ∩ ... ∩ LT(xn)``
5. ``(x1 < x2)?`` with σ-copies  → ``LT(x2t) = {x1t} ∪ LT(x2) ∪ LT(x1t)``,
                                    ``LT(x1t) = LT(x1)``,
                                    ``LT(x2f) = LT(x2)``,
                                    ``LT(x1f) = LT(x1) ∪ LT(x2f)``

Each formal parameter gets the pseudo-φ of Section 4,
``LT(p) = LT(a1) ∩ ... ∩ LT(an)`` over the actual arguments of its call
sites; with no call site, or a constant actual, ``LT(p) = ∅``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.lessthan.constraints import (
    Constraint,
    InitConstraint,
    IntersectionConstraint,
    UnionConstraint,
)
from repro.ir.function import Function
from repro.ir.instructions import (
    BinaryOp,
    Call,
    Copy,
    GetElementPtr,
    ICmp,
    Instruction,
    Phi,
)
from repro.ir.module import Module
from repro.ir.values import Argument, ConstantInt, Value
from repro.rangeanalysis.analysis import RangeAnalysis
from repro.rangeanalysis.classify import classify_additive


#: relation of a σ-copy's own operand to the other operand of the comparison,
#: per (predicate, branch taken).  "lt": self < other, "gt": self > other,
#: "le", "ge", "eq" analogous, "none": no information.
_SIGMA_RELATION = {
    ("slt", True): {"lhs": "lt", "rhs": "gt"},
    ("slt", False): {"lhs": "ge", "rhs": "le"},
    ("sle", True): {"lhs": "le", "rhs": "ge"},
    ("sle", False): {"lhs": "gt", "rhs": "lt"},
    ("sgt", True): {"lhs": "gt", "rhs": "lt"},
    ("sgt", False): {"lhs": "le", "rhs": "ge"},
    ("sge", True): {"lhs": "ge", "rhs": "le"},
    ("sge", False): {"lhs": "lt", "rhs": "gt"},
    ("eq", True): {"lhs": "eq", "rhs": "eq"},
    ("eq", False): {"lhs": "none", "rhs": "none"},
    ("ne", True): {"lhs": "none", "rhs": "none"},
    ("ne", False): {"lhs": "eq", "rhs": "eq"},
}


def _is_variable(value: Value) -> bool:
    """Constants are not variables; only SSA names participate in LT sets."""
    return isinstance(value, (Argument, Instruction))


class ConstraintGenerator:
    """Generates the less-than constraints of a whole module."""

    def __init__(self, ranges: Dict[Function, RangeAnalysis]) -> None:
        # One range analysis per defined function, solved on its e-SSA
        # form: it classifies additions vs. subtractions.
        self._ranges = ranges

    # -- entry point -------------------------------------------------------------
    def generate_for_module(self, module: Module) -> List[Constraint]:
        """Generate constraints for every function of ``module``.

        Formal parameters are constrained by a pseudo-φ over the actual
        arguments of every call site, as described in Section 4 of the
        paper; a formal without call sites behaves like an unknown input.
        """
        constraints: List[Constraint] = []
        argument_constraints: Dict[Argument, Constraint] = {}
        for function in module.functions:
            if function.is_declaration():
                continue
            ranges = self._ranges[function]
            for argument in function.arguments:
                argument_constraints[argument] = InitConstraint(argument, origin=argument)
            for inst in function.instructions():
                if not inst.produces_value():
                    continue
                constraints.append(self._constraint_for(inst, ranges))
        self._add_pseudo_phis(module, argument_constraints)
        constraints.extend(argument_constraints.values())
        return constraints

    def _add_pseudo_phis(self, module: Module,
                         argument_constraints: Dict[Argument, Constraint]) -> None:
        actuals: Dict[Argument, List[Value]] = {}
        complete: Dict[Argument, bool] = {}
        for function in module.functions:
            for inst in function.instructions():
                if not isinstance(inst, Call):
                    continue
                callee = inst.callee
                for index, actual in enumerate(inst.arguments):
                    if index >= len(callee.arguments):
                        continue
                    formal = callee.arguments[index]
                    actuals.setdefault(formal, [])
                    if _is_variable(actual):
                        actuals[formal].append(actual)
                    else:
                        # A constant actual contributes no LT set; the pseudo
                        # φ-function must then fall back to the empty set.
                        complete[formal] = False
        for formal, values in actuals.items():
            if formal not in argument_constraints:
                continue
            if values and complete.get(formal, True):
                argument_constraints[formal] = IntersectionConstraint(
                    formal, values, origin="pseudo-phi")

    # -- per-instruction rules ---------------------------------------------------------
    def _constraint_for(self, inst: Instruction, ranges: RangeAnalysis) -> Constraint:
        if isinstance(inst, Phi):
            return self._phi_rule(inst)
        if isinstance(inst, Copy):
            return self._copy_rule(inst, ranges)
        if isinstance(inst, (BinaryOp, GetElementPtr)):
            return self._additive_rule(inst, ranges)
        # Loads, calls, allocations, comparisons, ... carry no ordering info.
        return InitConstraint(inst, origin=inst)

    def _phi_rule(self, phi: Phi) -> Constraint:
        sources = [value for value, _block in phi.incoming()]
        if not sources or not all(_is_variable(s) for s in sources):
            # A constant incoming value has no LT set to intersect with;
            # conservatively fall back to the empty set.
            return InitConstraint(phi, origin=phi)
        return IntersectionConstraint(phi, sources, origin=phi)

    def _additive_rule(self, inst: Instruction, ranges: RangeAnalysis) -> Constraint:
        elements: List[Value] = []
        sources: List[Value] = []
        for fact in classify_additive(inst, ranges):
            if fact.kind == "grow" and _is_variable(fact.base):
                elements.append(fact.base)
                sources.append(fact.base)
        if elements:
            return UnionConstraint(inst, elements, sources, origin=inst)
        # Pure subtractions (rule 3) leave the result unconstrained; the
        # ordering information lives on the parallel copy instead.
        return InitConstraint(inst, origin=inst)

    def _copy_rule(self, copy: Copy, ranges: RangeAnalysis) -> Constraint:
        if copy.kind == "split":
            subtraction = getattr(copy, "split_subtraction", None)
            if subtraction is not None:
                # x1 = x2 - n ‖ ⟨x3 = x2⟩  gives  LT(x3) = {x1} ∪ LT(x2).
                return UnionConstraint(copy, [subtraction], [copy.source], origin=copy)
            return UnionConstraint(copy, [], [copy.source], origin=copy)
        if copy.kind == "sigma":
            return self._sigma_rule(copy)
        # Plain copies simply propagate the set of their source.
        if _is_variable(copy.source):
            return UnionConstraint(copy, [], [copy.source], origin=copy)
        return InitConstraint(copy, origin=copy)

    def _sigma_rule(self, copy: Copy) -> Constraint:
        condition: Optional[ICmp] = getattr(copy, "sigma_condition", None)
        side: Optional[str] = getattr(copy, "sigma_operand_side", None)
        on_true: bool = getattr(copy, "sigma_on_true_branch", True)
        source = copy.source
        base_sources: List[Value] = [source] if _is_variable(source) else []
        if condition is None or side not in ("lhs", "rhs"):
            return UnionConstraint(copy, [], base_sources, origin=copy)
        relation = _SIGMA_RELATION.get((condition.predicate, on_true), {}).get(side, "none")
        partner = self._find_partner_sigma(copy, condition, side, on_true)
        other_operand = condition.rhs if side == "lhs" else condition.lhs
        other_ref: Optional[Value] = partner if partner is not None else (
            other_operand if _is_variable(other_operand) else None)
        if relation == "gt" and other_ref is not None:
            return UnionConstraint(copy, [other_ref], base_sources + [other_ref], origin=copy)
        if relation in ("ge", "eq") and other_ref is not None:
            return UnionConstraint(copy, [], base_sources + [other_ref], origin=copy)
        # "lt", "le", "none", or no usable reference to the other operand:
        # the σ-copy just propagates its source's set.
        return UnionConstraint(copy, [], base_sources, origin=copy)

    def _find_partner_sigma(self, copy: Copy, condition: ICmp, side: str,
                            on_true: bool) -> Optional[Copy]:
        """The σ-copy of the *other* operand on the same branch, if any."""
        block = copy.parent
        if block is None:
            return None
        wanted_side = "rhs" if side == "lhs" else "lhs"
        for inst in block.instructions:
            if not isinstance(inst, Copy) or inst.kind != "sigma":
                continue
            if getattr(inst, "sigma_condition", None) is not condition:
                continue
            if getattr(inst, "sigma_on_true_branch", None) != on_true:
                continue
            if getattr(inst, "sigma_operand_side", None) == wanted_side:
                return inst
        return None
