"""Self-checking analyzer: IR lint + fixpoint certificates + verdict audit.

The pipeline's artifacts (e-SSA IR, interval fixpoints, less-than sets,
NoAlias verdicts) are produced by heavily optimized machinery; this package
independently re-validates each of them with deliberately naive checkers,
so a bug shared by every fast implementation still gets caught.

Entry points:

* ``python -m repro check`` — lint + certify source files or synthetic
  workloads, with per-function diagnostics (``--json`` for machines);
* ``REPRO_VERIFY=off|post|paranoid`` / ``ReproConfig.verify`` — run the
  suite automatically after every solve (``paranoid`` also inside pool
  workers, shipping reports back through the unit payload);
* :meth:`repro.api.session.Session.verify` — verify everything a session
  has compiled, returning the merged :class:`VerificationReport`.
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
