"""Work-unit execution: what runs inside every worker process.

A worker receives a :class:`~repro.engine.workunit.WorkUnit`, compiles the
unit's source text with the (deterministic) frontend, runs the requested job
over every defined function and returns a plain-dict payload built from
picklable primitives only — verdict counters, per-pair verdict code strings,
statistics dicts — which the coordinator collects.

The engine's caching discipline is one memo per unit:

1. with a store, look the ``aaeval`` unit up whole by
   :func:`~repro.engine.store.unit_key` (source text, labels and class
   limit); a hit is the payload, and nothing is compiled,
2. on a miss, compile the source, convert the module to e-SSA form and
   evaluate every requested analysis configuration over every function,
   truncating equivalence classes at the unit's ``class_limit``,
3. ship the merged payload back to the coordinator, which alone writes it
   to the store.

Under the unit's ``verify="post"`` the solved analysis is self-checked
wherever the unit runs, and the report rides back in the payload for the
coordinator to count and judge.

Every evaluation path — serial, pooled, store-warmed — follows the same
pipeline convention (evaluate on the e-SSA-converted module), so per-pair
verdict streams are bit-identical across all of them.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.alias.aaeval import AliasEvaluation, evaluate_function_verdicts
from repro.alias.basicaa import BasicAliasAnalysis
from repro.alias.andersen import AndersenAliasAnalysis
from repro.alias.interface import AliasAnalysis, chain_codes
from repro.core.disambiguation import DisambiguationStatistics
from repro.core.sraa import StrictInequalityAliasAnalysis
from repro.engine.store import AnalysisStore, unit_key
from repro.engine.workunit import WorkUnit, spec_label
from repro.frontend import compile_source
# Not called here: perfbench/spans.py wraps this name in this module.
from repro.ir.callgraph import module_fingerprints  # noqa: F401
from repro.ir.module import Module
from repro.ir.printer import print_module
from repro.obs import TRACER
from repro.passes.analysis_cache import FunctionAnalysisCache
from repro.util.collector import collector_paused
from repro.verify import VerificationReport, verify_alias_analysis

def initialize_worker(src_path: Optional[str], trace: bool = False) -> None:
    """Pool initializer: make ``repro`` importable under the spawn method.

    Forked workers inherit the parent's ``sys.path``; spawned ones re-import
    from scratch and only see ``PYTHONPATH``, so the coordinator passes the
    source root it imported ``repro`` from.  With ``trace`` this worker's
    tracer starts recording too; the span buffer ships back with each
    payload (see :func:`execute`).
    """
    if src_path and src_path not in sys.path:
        sys.path.insert(0, src_path)
    if trace:
        TRACER.enable()


#: every analysis an ``aaeval`` spec may name, by member name: BA, LT and
#: the Andersen points-to analysis standing in for the paper's CF.
MEMBERS: Dict[str, Callable[[Module, FunctionAnalysisCache], AliasAnalysis]] = {
    "basicaa": lambda module, cache: BasicAliasAnalysis(),
    "lt": lambda module, cache: StrictInequalityAliasAnalysis(module,
                                                              cache=cache),
    "andersen": lambda module, cache: AndersenAliasAnalysis(module),
}


def build_analysis(member: str, module: Module,
                   cache: FunctionAnalysisCache) -> AliasAnalysis:
    """Instantiate one analysis spec member (a key of :data:`MEMBERS`)."""
    return MEMBERS[member](module, cache)


def evaluate_module_functions(module: Module,
                              specs: Sequence[Sequence[str]] = (("lt",),),
                              cache: Optional[FunctionAnalysisCache] = None,
                              name: Optional[str] = None,
                              verify: str = "off") -> Dict[str, object]:
    """Evaluate ``specs`` over every defined function of ``module``.

    This is the core of the ``aaeval`` job, also callable in-process on an
    already compiled module (the serial fallback needs no pickling and no
    subprocesses).  Returns the payload described in the module docstring.

    Each analysis is evaluated once per function: every distinct spec member
    answers all pairs once (:func:`evaluate_function_verdicts`), a spec's
    codes are the :func:`chain_codes` merge of its members' streams, and its
    counts are tallied from those codes.  ``cache`` supplies the analyses;
    the query loops run on every call, and the payload's ``queries`` counts
    this call's queries only.

    With ``verify="post"`` the self-check suite runs over the solved LT
    analysis and its report rides in the payload's ``verify`` field, which
    the coordinator pops, counts and judges
    (:func:`repro.engine.driver._absorb_verify`).
    """
    cache = cache if cache is not None else FunctionAnalysisCache()
    functions = list(module.defined_functions())
    # Member verdict streams per (function name, member).
    streams: Dict[Tuple[str, str], str] = {}
    members: Dict[str, AliasAnalysis] = {}
    # A cached disambiguator's counters carry earlier calls' queries.
    queries_before: Dict[str, int] = {}

    def member_codes(function, member: str) -> str:
        codes = streams.get((function.name, member))
        if codes is None:
            if not members:
                # Pipeline convention: every path evaluates the
                # e-SSA-converted module (RangeAnalysis -> vSSA -> queries,
                # like the original artifact), so verdicts do not depend on
                # which specs run.
                for defined in module.defined_functions():
                    cache.ensure_essa(defined)
            if member not in members:
                analysis = build_analysis(member, module, cache)
                members[member] = analysis
                if isinstance(analysis, StrictInequalityAliasAnalysis):
                    queries_before[member] = (
                        analysis.disambiguator.statistics.queries)
            _evaluation, codes = evaluate_function_verdicts(
                function, members[member])
            streams[(function.name, member)] = codes
        return codes

    label_payloads: Dict[str, Dict[str, object]] = {}
    for spec in specs:
        merged = AliasEvaluation()
        verdicts: Dict[str, str] = {}
        for function in functions:
            codes = chain_codes([member_codes(function, member)
                                 for member in spec])
            merged = merged.merge(AliasEvaluation.from_codes(codes))
            verdicts[function.name] = codes
        label_payloads[spec_label(spec)] = {"counts": merged.as_dict(),
                                            "verdicts": verdicts}

    statistics = DisambiguationStatistics()
    for member, analysis in members.items():
        if isinstance(analysis, StrictInequalityAliasAnalysis):
            statistics = statistics.merge(analysis.disambiguator.statistics)
            statistics.queries -= queries_before[member]

    payload: Dict[str, object] = {
        "kind": "aaeval",
        "name": name if name is not None else module.name,
        "functions": [function.name for function in functions],
        "instructions": module.instruction_count(),
        "labels": label_payloads,
        "statistics": statistics.as_dict(),
        "pid": os.getpid(),
    }
    # Self-check hook (REPRO_VERIFY): after the statistics snapshot — the
    # audit restores the disambiguator counters it touches, so verified and
    # unverified runs produce byte-identical payloads once the coordinator
    # pops this field (_PERSISTED_FIELDS excludes it too).
    if verify == "post" and members:
        report = _verify_prepared_analyses(members)
        if report is not None:
            payload["verify"] = report.as_dict()
    return payload


def _verify_prepared_analyses(
        members: Dict[str, AliasAnalysis]) -> Optional[VerificationReport]:
    """Run the self-check suite over the freshly solved LT analysis."""
    report: Optional[VerificationReport] = None
    for member in members.values():
        if isinstance(member, StrictInequalityAliasAnalysis):
            sub = verify_alias_analysis(member)
            report = sub if report is None else report.merge(sub)
    return report


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

def _job_aaeval(unit: WorkUnit, module: Module,
                cache: FunctionAnalysisCache) -> Dict[str, object]:
    return evaluate_module_functions(module, unit.specs, cache,
                                     name=unit.name, verify=unit.verify)


def _job_lessthan_stats(unit: WorkUnit, module: Module,
                        cache: FunctionAnalysisCache) -> Dict[str, object]:
    """Constraint-generation/solving metrics (the Figure 11 measurement)."""
    analysis = cache.module_lessthan(module)
    statistics = analysis.statistics
    return {
        "kind": "lessthan-stats",
        "name": unit.name,
        "instructions": module.instruction_count(),
        "constraints": statistics.constraint_count,
        "worklist_pops": statistics.worklist_pops,
        "pops_per_constraint": statistics.pops_per_constraint,
        "solve_seconds": statistics.solve_time_seconds,
        "pid": os.getpid(),
    }


def _job_print_ir(unit: WorkUnit, module: Module,
                  _cache: FunctionAnalysisCache) -> Dict[str, object]:
    """The compiled module's printed IR (cross-process determinism checks)."""
    return {
        "kind": "print-ir",
        "name": unit.name,
        "ir": print_module(module),
        "pid": os.getpid(),
    }


JOBS = {
    "aaeval": _job_aaeval,
    "lessthan-stats": _job_lessthan_stats,
    "print-ir": _job_print_ir,
}

#: jobs whose payload is a pure function of the unit (no timing fields) and
#: may therefore be memoized whole at the unit level.
CACHEABLE_KINDS = frozenset(["aaeval"])

#: payload fields that describe the evaluation itself (persisted); the rest
#: (pid, store counters, write-back entries) describe one particular run.
_PERSISTED_FIELDS = ("kind", "name", "functions", "instructions",
                     "labels", "statistics")


def run_work_unit(unit: WorkUnit,
                  store: Optional[AnalysisStore] = None) -> Dict[str, object]:
    """Compile ``unit.source`` and run its job; the single worker entry point.

    With a store, ``aaeval`` units are first looked up whole by source-text
    hash (:func:`~repro.engine.store.unit_key`): a hit skips compilation and
    analysis outright.  On a miss the job runs cold and its payload is
    handed back for the coordinator to persist.

    The payload is plain data, so the unit's IR and analyses end with it:
    the module is released (:meth:`~repro.ir.module.Module.release`) and the
    unit's private cache emptied, and reference counting frees them.  The
    cycle collector is paused for the unit, which leaves it nothing to find.
    """
    with collector_paused(), \
            TRACER.span("engine.unit", unit=unit.name, kind=unit.kind):
        return _run_work_unit(unit, store)


def _run_work_unit(unit: WorkUnit,
                   store: Optional[AnalysisStore]) -> Dict[str, object]:
    if unit.kind not in JOBS:
        raise KeyError("unknown work-unit kind {!r}".format(unit.kind))
    memo_key = None
    if store is not None and unit.kind in CACHEABLE_KINDS:
        memo_key = unit_key(unit.kind, unit.name, unit.source, unit.labels(),
                            unit.class_limit)
        cached = store.get(memo_key)
        if cached is not None:
            payload = dict(cached)
            payload["store_hits"] = 1
            payload["store_misses"] = 0
            # LRU touch: a read-only (worker-side) store ships the hit key
            # back for the coordinator to promote; a writable store already
            # touched it inside ``get``.
            payload["touched_keys"] = [memo_key] if store.readonly else []
            payload["pid"] = os.getpid()
            return payload
    module = compile_source(unit.source, module_name=unit.name)
    cache = FunctionAnalysisCache(class_limit=unit.class_limit)
    try:
        payload = JOBS[unit.kind](unit, module, cache)
    finally:
        # The cache and its less-than analysis point at each other.
        cache.invalidate()
        module.release()
    if memo_key is not None:
        persisted = {field: payload[field] for field in _PERSISTED_FIELDS}
        payload["store_hits"] = 0
        payload["store_misses"] = 1
        payload["new_entries"] = [(memo_key, persisted)]
    return payload


def execute(task: Tuple[int, WorkUnit, Optional[Tuple[str, str]]]) \
        -> Tuple[int, Dict[str, object]]:
    """Pool entry point: ``(index, unit, store_spec)``.

    The store spec is ``(path, version)``; the store is opened read-only for
    this one unit and closed afterwards (the coordinator is the only
    writer).  The payload comes back tagged with its input index so the
    streaming coordinator can restore deterministic output order.
    """
    index, unit, store_spec = task
    if store_spec is None:
        return index, _ship_telemetry(run_work_unit(unit, store=None))
    path, version = store_spec
    store = AnalysisStore(path, version=version, readonly=True)
    try:
        return index, _ship_telemetry(run_work_unit(unit, store=store))
    finally:
        store.close()


def _ship_telemetry(payload: Dict[str, object]) -> Dict[str, object]:
    """Attach this worker's drained span buffer to a pool payload.

    The coordinator pops these fields, rebases the timestamps with the
    shipped clock epoch and merges the spans onto its own timeline under a
    ``worker-<pid>`` lane.  They never reach verdict output or the store
    (``_PERSISTED_FIELDS`` excludes them), so traced and untraced runs stay
    byte-identical.
    """
    if TRACER.enabled:
        payload["spans"] = TRACER.drain()
        payload["span_epoch"] = TRACER.clock_epoch()
    return payload
