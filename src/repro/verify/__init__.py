"""Self-checking analyzer: IR lint + fixpoint certificates + verdict audit.

The pipeline's artifacts (e-SSA IR, interval fixpoints, less-than sets,
NoAlias verdicts) are produced by heavily optimized machinery; this package
independently re-validates each of them with deliberately naive checkers,
so a bug shared by every fast implementation still gets caught.

Entry points:

* ``python -m repro check`` — lint + certify source files or synthetic
  workloads, with per-function diagnostics (``--json`` for machines);
* ``REPRO_VERIFY=off|post`` / ``ReproConfig.verify`` — run the suite
  over every unit a ``Session`` evaluates, serial or in a pool worker; the
  report rides back in the unit payload and the coordinator counts and
  judges it;
* :meth:`repro.api.session.Session.verify` — verify everything a session
  has compiled, returning the merged :class:`VerificationReport`.

This package is the one home of the independent references:
:mod:`repro.verify.certificate` holds the transfer-function recompute and
``reference_disambiguate``, and :mod:`repro.verify.reference` the dense
range solver and the constraint-keyed LT solver the differential tests
compare the production solvers against.  The latter is imported only by
tests and benchmarks, never from here, so production runs do not load it.
"""

from repro.verify.diagnostics import (
    CATEGORIES,
    Diagnostic,
    SEVERITIES,
    VerificationReport,
    VerifyError,
)
from repro.verify.runner import (
    COUNTERS,
    VerifyCounters,
    verify_alias_analysis,
    verify_analysis,
)

__all__ = [
    "CATEGORIES",
    "COUNTERS",
    "Diagnostic",
    "SEVERITIES",
    "VerificationReport",
    "VerifyCounters",
    "VerifyError",
    "verify_alias_analysis",
    "verify_analysis",
]
