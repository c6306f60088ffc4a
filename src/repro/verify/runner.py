"""The verification runner: one call validates a whole solved pipeline.

:func:`verify_analysis` runs every checker category over one
:class:`~repro.core.lessthan.analysis.LessThanAnalysis` (which owns the
functions, their range analyses, the constraint system and the solved LT
sets):

1. ``ir``      — structural/SSA lint (:func:`repro.ir.verifier.function_problems`);
2. ``essa``    — σ-placement and σ-completeness lint (:mod:`repro.essa.lint`);
3. ``range``   — the interval post-fixpoint certificate;
4. ``lt``      — the less-than constraint certificate;
5. ``verdict`` — the NoAlias witness audit.

:func:`verify_alias_analysis` runs the same suite over a
:class:`~repro.core.sraa.StrictInequalityAliasAnalysis` (the engine hook's
entry point).  Neither records anything: the callers that judge a report
(the engine's coordinator, ``Session``) count it into the module-level
:data:`COUNTERS`, the totals of the ``[verify]`` section of
``python -m repro stats``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.disambiguation import PointerDisambiguator
from repro.core.lessthan.analysis import LessThanAnalysis
from repro.core.sraa import StrictInequalityAliasAnalysis
from repro.obs import TRACER
from repro.verify.certificate import (
    audit_verdicts,
    check_lt_certificate,
    check_range_certificate,
)
from repro.verify.diagnostics import VerificationReport, VerifyError


class VerifyCounters:
    """Process-wide accumulation of verification work, for ``stats``."""

    def __init__(self) -> None:
        self.runs = 0
        self.functions = 0
        self.checks = 0
        self.errors = 0
        self.warnings = 0

    def record(self, report: VerificationReport) -> None:
        self.runs += 1
        self.functions += report.functions
        self.checks += report.checks_run()
        self.errors += len(report.errors)
        self.warnings += len(report.warnings)

    def reset(self) -> None:
        self.__init__()

    def as_dict(self) -> Dict[str, int]:
        return {
            "runs": self.runs,
            "functions": self.functions,
            "checks": self.checks,
            "errors": self.errors,
            "warnings": self.warnings,
        }


#: totals of the verification runs this process judged: the engine's
#: coordinator records each unit's report, :meth:`repro.api.session.
#: CompiledUnit.verify` each of its runs.
COUNTERS = VerifyCounters()


def verify_analysis(analysis: LessThanAnalysis,
                    disambiguator: Optional[PointerDisambiguator] = None,
                    audit: bool = True) -> VerificationReport:
    """Run the full checker suite over one solved analysis.

    ``disambiguator`` should be the production disambiguator whose verdicts
    are in use (its claims are what the audit re-justifies); when omitted a
    fresh one is built over ``analysis``.
    """
    from repro.essa.lint import sigma_problems
    from repro.ir.verifier import function_problems

    report = VerificationReport()
    with TRACER.span("verify.run", functions=len(analysis.functions)):
        for function in analysis.functions:
            report.functions += 1
            with TRACER.span("verify.function", fn=function.name):
                report.bump("ir")
                for problem in function_problems(function):
                    report.add("ir", "error", function.name, "", problem)
                report.bump("essa")
                for value, message in sigma_problems(function):
                    report.add("essa", "error", function.name, value, message)
                ranges = analysis.ranges.get(function)
                if ranges is not None:
                    check_range_certificate(function, ranges, report)
        with TRACER.span("verify.lt", constraints=len(analysis.constraints)):
            check_lt_certificate(analysis.constraints, analysis.lt_sets, report)
        if audit:
            if disambiguator is None:
                disambiguator = PointerDisambiguator(analysis)
            with TRACER.span("verify.verdicts"):
                for function in analysis.functions:
                    audit_verdicts(function, disambiguator, analysis.lt_sets,
                                   report)
    return report


def verify_alias_analysis(sraa: StrictInequalityAliasAnalysis) -> VerificationReport:
    """Verify a ``StrictInequalityAliasAnalysis``: its module analysis,
    audited against the disambiguator whose verdicts it serves."""
    return verify_analysis(sraa.analysis, sraa.disambiguator)


__all__ = [
    "COUNTERS",
    "VerifyCounters",
    "VerifyError",
    "VerificationReport",
    "verify_alias_analysis",
    "verify_analysis",
]
