"""The cross-process evaluation engine.

The paper's evaluation methodology issues O(n²) alias queries over every
function of every benchmark program; per-function work is cheap and
self-contained (:class:`~repro.passes.FunctionAnalysisCache`), and this
package runs one work unit per program, serially or over a worker pool:

* :mod:`repro.engine.workunit` — picklable :class:`WorkUnit` descriptions,
  one per program;
* :mod:`repro.engine.worker` — the per-process job runner (compile the
  unit's source deterministically, evaluate every function, return
  picklable verdict/statistics payloads);
* :mod:`repro.engine.store` — the persistent sqlite :class:`AnalysisStore`
  content-addressed by IR text hashes with versioned invalidation, so
  repeated runs skip analysis entirely;
* :mod:`repro.engine.driver` — the coordinator internals behind
  :class:`repro.api.session.Session`, the package's only evaluation entry
  point; configuration resolves through
  :class:`repro.api.config.ReproConfig` (explicit argument > config field >
  ``REPRO_*`` environment variable > default), with a serial in-process
  fallback.

Every path — serial, pooled, store-warmed — produces bit-identical
per-pair verdicts; the engine records the verdict streams precisely so that
this can be asserted, not assumed.
"""

from repro.engine.store import (
    AnalysisStore,
    STORE_VERSION,
    function_key,
    text_hash,
)
from repro.engine.workunit import DEFAULT_SPECS, WorkUnit, spec_label
from repro.engine.worker import (
    build_analysis,
    evaluate_module_functions,
    run_work_unit,
)
from repro.engine.driver import UnitResult

__all__ = [
    "AnalysisStore",
    "STORE_VERSION",
    "function_key",
    "text_hash",
    "DEFAULT_SPECS",
    "WorkUnit",
    "spec_label",
    "build_analysis",
    "evaluate_module_functions",
    "run_work_unit",
    "UnitResult",
]
