"""Work units: one per program.

A :class:`WorkUnit` is the picklable unit of work the engine ships to a
worker process: a job kind, a program name and the program's *source text*
(the worker compiles it itself — the compiled IR is full of identity-keyed
object graphs that do not survive pickling, while the frontend and mem2reg
are deterministic, so recompiling yields bit-identical IR in every process).
A unit always covers every defined function of its program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

#: the default analysis configurations of the paper's tables: BA alone, LT
#: alone, and the BA + LT chain.
DEFAULT_SPECS: Tuple[Tuple[str, ...], ...] = (
    ("basicaa",),
    ("lt",),
    ("basicaa", "lt"),
)

def spec_label(spec: Sequence[str]) -> str:
    """The display/storage label of an analysis spec: ``("basicaa", "lt")``
    becomes ``"basicaa+lt"``, mirroring the paper's ``BA + LT`` notation."""
    return "+".join(spec)


#: analyses whose facts unify state across *every* function (globals flow
#: through one shared points-to graph), so no call-graph slice bounds what
#: an edit can change — their entries must stay keyed by the module hash.
MODULE_GLOBAL_MEMBERS = frozenset(["andersen", "steensgaard"])


def spec_fingerprint_scope(spec: Sequence[str], interprocedural: bool) -> str:
    """Which module slice ``spec``'s per-function facts can depend on.

    ``"module"`` — any member is module-global (Andersen/Steensgaard).
    ``"region"`` — the interprocedural less-than analysis: pseudo-φ
    constraints flow facts caller → callee, so a function's facts are a pure
    function of itself plus its transitive callers.
    ``"dependency"`` — everything else (basicaa/tbaa/intraprocedural lt)
    reads at most the function and its callees.

    The store folds the matching fingerprint from
    :class:`repro.ir.callgraph.ModuleFingerprints` into
    :func:`repro.engine.store.function_key`, and
    :meth:`repro.passes.analysis_cache.FunctionAnalysisCache.refresh` uses
    the same rule to decide which in-process payloads survive an edit.
    """
    if any(member in MODULE_GLOBAL_MEMBERS for member in spec):
        return "module"
    if interprocedural and "lt" in spec:
        return "region"
    return "dependency"


def label_fingerprint_scope(cache_label: str) -> str:
    """:func:`spec_fingerprint_scope` for an engine cache label — a
    :func:`spec_label` optionally suffixed ``#intra`` (the intraprocedural
    marker the engine appends to memoization keys)."""
    interprocedural = not cache_label.endswith("#intra")
    base = cache_label if interprocedural else cache_label[:-len("#intra")]
    return spec_fingerprint_scope(base.split("+"), interprocedural)


@dataclass(frozen=True)
class WorkUnit:
    """One self-contained, picklable unit of evaluation work."""

    #: job kind — a key of :data:`repro.engine.worker.JOBS`.
    kind: str
    #: program name (module name, benchmark row label).
    name: str
    #: mini-C source text; compiled by whichever process runs the unit.
    source: str
    #: analysis configurations to evaluate (``aaeval`` jobs).
    specs: Tuple[Tuple[str, ...], ...] = DEFAULT_SPECS
    #: whether less-than analyses run interprocedurally.
    interprocedural: bool = True

    def labels(self) -> List[str]:
        return [spec_label(spec) for spec in self.specs]
