"""The paper's primary contribution.

* :mod:`repro.core.lessthan` — the sparse "less-than" dataflow analysis:
  constraint generation over e-SSA programs (Figure 7 of the paper) and the
  worklist solver over the powerset-of-variables lattice.
* :mod:`repro.core.disambiguation` — the pointer disambiguation criteria of
  Definition 3.11.
* :mod:`repro.core.sraa` — the Strict-Relations Alias Analysis, packaging the
  above behind the common :class:`repro.alias.AliasAnalysis` interface.
* :mod:`repro.core.abcd` and :mod:`repro.core.rangebased` — reimplementations
  of the two closest related approaches discussed in Section 5 (the ABCD
  demand-driven inequality prover and range/value-set based disambiguation),
  used by the ablation benchmarks.
"""

from repro.core.lessthan.analysis import LessThanAnalysis
from repro.core.lessthan.solver import SolverStatistics
from repro.core.disambiguation import (
    DisambiguationReason,
    DisambiguationStatistics,
    PointerDisambiguator,
)
from repro.core.sraa import StrictInequalityAliasAnalysis
from repro.core.abcd import ABCDAliasAnalysis, ABCDProver
from repro.core.rangebased import RangeBasedAliasAnalysis

__all__ = [
    "LessThanAnalysis",
    "SolverStatistics",
    "DisambiguationReason",
    "DisambiguationStatistics",
    "PointerDisambiguator",
    "StrictInequalityAliasAnalysis",
    "ABCDAliasAnalysis",
    "ABCDProver",
    "RangeBasedAliasAnalysis",
]
