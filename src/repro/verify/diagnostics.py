"""Diagnostics and reports of the self-check suite.

A :class:`Diagnostic` is one finding of one checker: which category of
checker produced it (``ir``, ``essa``, ``range``, ``lt``, ``verdict``), how
severe it is (``error`` — the artifact is wrong; ``warning`` — suspicious
but not provably unsound), and which function/value it anchors to.

A :class:`VerificationReport` aggregates the findings of a verification run
together with counters of the checks that *passed* (so "0 problems" is
distinguishable from "0 checks ran").  Reports are plain data: under
``REPRO_VERIFY=post`` every unit, serial or pooled, returns its report to
the coordinator through the unit payload (``as_dict``/``from_dict``),
exactly like tracing spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

#: checker categories, in report order.
CATEGORIES = ("ir", "essa", "range", "lt", "verdict")
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one checker."""

    category: str        # one of CATEGORIES
    severity: str        # one of SEVERITIES
    function: str        # name of the function, or "" for module-level findings
    value: str           # name of the offending SSA value, or ""
    message: str

    def format(self) -> str:
        location = "@{}".format(self.function) if self.function else "<module>"
        if self.value:
            location += " %{}".format(self.value)
        return "{} [{}] {}: {}".format(self.severity, self.category,
                                       location, self.message)

    def as_dict(self) -> Dict[str, str]:
        return {
            "category": self.category,
            "severity": self.severity,
            "function": self.function,
            "value": self.value,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, str]) -> "Diagnostic":
        return cls(category=str(data.get("category", "")),
                   severity=str(data.get("severity", "error")),
                   function=str(data.get("function", "")),
                   value=str(data.get("value", "")),
                   message=str(data.get("message", "")))


class VerificationReport:
    """The findings and check counts of one verification run."""

    def __init__(self) -> None:
        self.diagnostics: List[Diagnostic] = []
        #: checks that ran, per category (functions linted, values certified,
        #: LT constraints re-evaluated, verdicts audited).
        self.checked: Dict[str, int] = {category: 0 for category in CATEGORIES}
        #: functions covered by this report.
        self.functions = 0

    # -- recording ---------------------------------------------------------------
    def add(self, category: str, severity: str, function: str, value: str,
            message: str) -> None:
        self.diagnostics.append(Diagnostic(category, severity, function,
                                           value, message))

    def bump(self, category: str, count: int = 1) -> None:
        self.checked[category] = self.checked.get(category, 0) + count

    # -- queries -----------------------------------------------------------------
    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def checks_run(self) -> int:
        return sum(self.checked.values())

    def summary(self) -> str:
        return "{} checks, {} errors, {} warnings over {} functions".format(
            self.checks_run(), len(self.errors), len(self.warnings),
            self.functions)

    # -- aggregation and transport -------------------------------------------------
    def merge(self, other: "VerificationReport") -> "VerificationReport":
        merged = VerificationReport()
        merged.diagnostics = list(self.diagnostics) + list(other.diagnostics)
        for source in (self.checked, other.checked):
            for category, count in source.items():
                merged.checked[category] = merged.checked.get(category, 0) + count
        merged.functions = self.functions + other.functions
        return merged

    def as_dict(self) -> Dict[str, object]:
        return {
            "diagnostics": [d.as_dict() for d in self.diagnostics],
            "checked": dict(self.checked),
            "functions": self.functions,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "VerificationReport":
        report = cls()
        for entry in data.get("diagnostics", []) or []:
            report.diagnostics.append(Diagnostic.from_dict(entry))
        for category, count in (data.get("checked", {}) or {}).items():
            report.checked[str(category)] = int(count)
        report.functions = int(data.get("functions", 0))
        return report

    def raise_if_failed(self, context: str = "") -> "VerificationReport":
        """Raise :class:`VerifyError` when any error-severity finding exists."""
        if not self.ok:
            raise VerifyError(self, context)
        return self

    def __repr__(self) -> str:
        return "<VerificationReport {}>".format(self.summary())


class VerifyError(Exception):
    """A verification run found error-severity problems.

    The full :class:`VerificationReport` rides on ``.report`` so callers
    (the engine hook, ``Session.verify``, tests) can inspect every finding.
    """

    def __init__(self, report: VerificationReport, context: str = "") -> None:
        self.report = report
        self.context = context
        head = [d.format() for d in report.errors[:5]]
        more = len(report.errors) - len(head)
        if more > 0:
            head.append("... and {} more".format(more))
        prefix = "{}: ".format(context) if context else ""
        super().__init__("{}verification failed ({}):\n  {}".format(
            prefix, report.summary(), "\n  ".join(head)))

    def __reduce__(self):
        # Round-trips through pickle (pool workers ship exceptions).
        return (type(self), (self.report, self.context))
