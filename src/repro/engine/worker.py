"""Work-unit execution: what runs inside every worker process.

A worker receives a :class:`~repro.engine.workunit.WorkUnit`, compiles the
unit's source text with the (deterministic) frontend, runs the requested job
over its shard of functions and returns a plain-dict payload built from
picklable primitives only — verdict counters, per-pair verdict code strings,
statistics dicts — which the coordinator merges.

The ``aaeval`` job implements the engine's caching discipline:

1. hash every function's printed IR (*before* the e-SSA conversion mutates
   it) together with a call-graph-aware fingerprint of the module slice the
   spec can observe (:mod:`repro.ir.callgraph`): the reachable-region
   fingerprint for interprocedural less-than specs, the dependency
   fingerprint for function-scoped specs, the whole module's hash only for
   module-global analyses (Andersen/Steensgaard),
2. warm-load any persisted payloads from the analysis store into the
   :class:`~repro.passes.analysis_cache.FunctionAnalysisCache`,
3. for cache misses only: convert the module to e-SSA form and evaluate with
   the requested analysis configurations (so a fully warm run never builds a
   range analysis, never solves constraints and never issues a query),
4. ship freshly computed payloads back to the coordinator, which alone
   writes to the store.

Every evaluation path — serial, sharded, store-warmed — follows the same
pipeline convention (evaluate on the e-SSA-converted module), so per-pair
verdict streams are bit-identical across all of them.
"""

from __future__ import annotations

import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.config import ReproConfig, install_config, resolved_verify
from repro.alias.aaeval import AliasEvaluation, evaluate_function_verdicts
from repro.alias.basicaa import BasicAliasAnalysis
from repro.alias.andersen import AndersenAliasAnalysis
from repro.alias.interface import AliasAnalysis, chain_codes
from repro.alias.steensgaard import SteensgaardAliasAnalysis
from repro.alias.tbaa import TypeBasedAliasAnalysis
from repro.core.disambiguation import DisambiguationStatistics
from repro.core.sraa import StrictInequalityAliasAnalysis
from repro.engine.store import AnalysisStore, function_key, text_hash, unit_key
from repro.engine.workunit import WorkUnit, spec_fingerprint_scope, spec_label
from repro.frontend import compile_source
from repro.ir.callgraph import ModuleFingerprints, module_fingerprints
from repro.ir.module import Module
from repro.ir.printer import print_function, print_module
from repro.obs import TRACER
from repro.passes.analysis_cache import FunctionAnalysisCache
from repro.verify import VerificationReport, verify_alias_analysis

#: True inside a multiprocessing pool worker (set by :func:`initialize_worker`).
#: The self-check hook consults it: in-process runs verify under ``post`` and
#: ``paranoid`` and raise on failure; pool workers verify under ``paranoid``
#: only and ship the report back through the payload for the coordinator to
#: judge (raising inside the pool would surface as an opaque pool error).
_IN_POOL_WORKER = False


def initialize_worker(src_path: Optional[str],
                      config: Optional[ReproConfig] = None) -> None:
    """Pool initializer: make ``repro`` importable under the spawn method.

    Forked workers inherit the parent's ``sys.path``; spawned ones re-import
    from scratch and only see ``PYTHONPATH``, so the coordinator passes the
    source root it imported ``repro`` from.

    ``config`` is the coordinator's active :class:`ReproConfig`, installed
    as this process's base config so that self-checks and
    equivalence-class truncation resolve identically in every worker —
    under ``spawn`` as well as ``fork`` (environment variables alone would
    miss a session whose config differs from the environment).  When that
    config carries a trace path, this worker's tracer starts recording too;
    the span buffer ships back with each payload (see :func:`execute`).
    """
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True
    if src_path and src_path not in sys.path:
        sys.path.insert(0, src_path)
    if config is not None:
        install_config(config)
        if config.trace:
            TRACER.enable()


def build_analysis(member: str, module: Module, cache: FunctionAnalysisCache,
                   interprocedural: bool = True) -> AliasAnalysis:
    """Instantiate one analysis spec member (``basicaa``, ``lt``, ...)."""
    if member == "basicaa":
        return BasicAliasAnalysis()
    if member == "lt":
        return StrictInequalityAliasAnalysis(module, interprocedural=interprocedural,
                                             cache=cache)
    if member == "andersen":
        return AndersenAliasAnalysis(module)
    if member == "steensgaard":
        return SteensgaardAliasAnalysis(module)
    if member == "tbaa":
        return TypeBasedAliasAnalysis()
    raise KeyError("unknown analysis spec member {!r}".format(member))


def module_content_text(module: Module) -> str:
    """The module's printed IR minus its name line.

    ``print_module`` leads with a ``; module <name>`` comment; hashing must
    ignore it so that two units with identical content but different program
    names share function-level store entries.
    """
    text = print_module(module)
    if text.startswith("; module "):
        _header, _sep, rest = text.partition("\n")
        return rest
    return text


def scope_fingerprint(scope: str, function_name: str, module_hash: str,
                      prints: ModuleFingerprints) -> str:
    """The fingerprint :func:`function_key` folds for one (scope, function)."""
    if scope == "module":
        return module_hash
    if scope == "region":
        return prints.region[function_name]
    return prints.fingerprint[function_name]


def _shard_functions(module: Module, names: Optional[Sequence[str]]):
    functions = list(module.defined_functions())
    if names is None:
        return functions
    wanted = set(names)
    return [function for function in functions if function.name in wanted]


def evaluate_module_functions(module: Module,
                              function_names: Optional[Sequence[str]] = None,
                              specs: Sequence[Sequence[str]] = (("lt",),),
                              cache: Optional[FunctionAnalysisCache] = None,
                              store: Optional[AnalysisStore] = None,
                              interprocedural: bool = True,
                              name: Optional[str] = None) -> Dict[str, object]:
    """Evaluate ``specs`` over (a shard of) ``module``'s functions.

    This is the core of the ``aaeval`` job, also callable in-process on an
    already compiled module (the serial fallback needs no pickling and no
    subprocesses).  Returns the payload described in the module docstring.

    Each analysis is evaluated once per function: every distinct spec member
    answers all pairs once (:func:`evaluate_function_verdicts`), a spec's
    codes are the :func:`chain_codes` merge of its members' streams, and its
    counts are tallied from those codes.  A single-member spec whose record
    hit the cache or the store lends its codes to the chains containing it.
    """
    cache = cache if cache is not None else FunctionAnalysisCache()
    functions = _shard_functions(module, function_names)
    labels = [spec_label(spec) for spec in specs]
    # Interprocedural and intraprocedural LT runs produce different facts for
    # the same IR, so the mode must be part of every memoization key — both
    # the persistent one (function_key below) and the in-process cache's.
    # User-facing payload labels stay undecorated.
    mode_suffix = "" if interprocedural else "#intra"

    # Content addresses, computed before any conversion mutates the IR.
    keys: Dict[Tuple[str, str], str] = {}
    touched_before = 0
    if store is not None:
        # The counters are cumulative on the store object (which serial runs
        # share across units), so report this unit's delta.
        hits_before, misses_before = store.hits, store.misses
        # Read-only stores record hit keys (the LRU touch protocol); the
        # coordinator applies this unit's delta via ``touch_many``.
        # Writable stores touch directly inside ``get``.
        touched_before = len(store.touched_keys)
        module_hash = text_hash(module_content_text(module))
        prints = module_fingerprints(module)
        scopes = {label: spec_fingerprint_scope(spec, interprocedural)
                  for spec, label in zip(specs, labels)}
        for function in functions:
            function_text = print_function(function)
            for label in labels:
                fingerprint = scope_fingerprint(
                    scopes[label], function.name, module_hash, prints)
                key = function_key(label + mode_suffix, function_text, fingerprint)
                keys[(function.name, label)] = key
                payload = store.get(key)
                # Per-kind hit accounting: the "fingerprint" row of the
                # cache statistics is the warm-hit rate of fingerprint-keyed
                # store lookups — what the churn benchmark gates on.
                cache.statistics.record("fingerprint", payload is not None)
                if payload is not None:
                    cache.put_evaluation(function, label + mode_suffix, payload)
        store_hits = store.hits - hits_before
        store_misses = store.misses - misses_before
    else:
        module_hash = ""
        store_hits = store_misses = 0

    records = {(function.name, label): cache.get_evaluation(
                   function, label + mode_suffix)
               for function in functions for label in labels}
    # Member verdict streams per (function name, member).  A single-member
    # spec whose record hit the cache or the store lends its codes.
    streams: Dict[Tuple[str, str], str] = {}
    for spec, label in zip(specs, labels):
        for function in functions:
            record = records[(function.name, label)]
            if record is not None and len(spec) == 1:
                streams[(function.name, label)] = record["codes"]
    members: Dict[str, AliasAnalysis] = {}

    def member_codes(function, member: str) -> str:
        codes = streams.get((function.name, member))
        if codes is None:
            if not members:
                # Pipeline convention: every path evaluates the
                # e-SSA-converted module (RangeAnalysis -> vSSA -> queries,
                # like the original artifact), so verdicts do not depend on
                # which specs run or hit.
                for defined in module.defined_functions():
                    cache.ensure_essa(defined)
            if member not in members:
                members[member] = build_analysis(member, module, cache,
                                                 interprocedural)
            _evaluation, codes = evaluate_function_verdicts(
                function, members[member])
            streams[(function.name, member)] = codes
        return codes

    new_entries: List[Tuple[str, object]] = []
    label_payloads: Dict[str, Dict[str, object]] = {}
    for spec, label in zip(specs, labels):
        merged = AliasEvaluation()
        verdicts: Dict[str, str] = {}
        for function in functions:
            record = records[(function.name, label)]
            if record is None:
                codes = chain_codes([member_codes(function, member)
                                     for member in spec])
                record = {"counts": AliasEvaluation.from_codes(codes).as_dict(),
                          "codes": codes}
                cache.put_evaluation(function, label + mode_suffix, record)
                if store is not None:
                    new_entries.append((keys[(function.name, label)], record))
            merged = merged.merge(AliasEvaluation.from_dict(record["counts"]))
            verdicts[function.name] = record["codes"]
        label_payloads[label] = {"counts": merged.as_dict(), "verdicts": verdicts}

    statistics = DisambiguationStatistics()
    for member in members.values():
        if isinstance(member, StrictInequalityAliasAnalysis):
            for disambiguator in member.disambiguators():
                statistics = statistics.merge(disambiguator.statistics)

    touched_keys: List[str] = []
    if store is not None and store.readonly:
        touched_keys = list(store.touched_keys[touched_before:])

    # Self-check hook (REPRO_VERIFY): after the statistics snapshot — the
    # audit restores the disambiguator counters it touches, so verified and
    # unverified runs produce byte-identical payloads — and only when this
    # call actually solved something (warm runs re-check nothing).
    verify_report = None
    verify_mode = resolved_verify()
    if (verify_mode != "off" and members
            and (verify_mode == "paranoid" or not _IN_POOL_WORKER)):
        verify_report = _verify_prepared_analyses(members)
        if verify_report is not None and not _IN_POOL_WORKER:
            verify_report.raise_if_failed(
                "REPRO_VERIFY={}".format(verify_mode))

    payload: Dict[str, object] = {
        "kind": "aaeval",
        "name": name if name is not None else module.name,
        "functions": [function.name for function in functions],
        "instructions": module.instruction_count(),
        "module_hash": module_hash,
        "labels": label_payloads,
        "statistics": statistics.as_dict(),
        "store_hits": store_hits,
        "store_misses": store_misses,
        "new_entries": new_entries,
        "touched_keys": touched_keys,
        "pid": os.getpid(),
    }
    if verify_report is not None and _IN_POOL_WORKER:
        # Ship the report like tracing spans: the coordinator pops the field
        # (never persisted — _PERSISTED_FIELDS excludes it), folds the
        # counters into its own totals and raises on error findings.
        payload["verify"] = verify_report.as_dict()
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

def _job_aaeval(unit: WorkUnit, module: Module, cache: FunctionAnalysisCache,
                store: Optional[AnalysisStore]) -> Dict[str, object]:
    return evaluate_module_functions(
        module, unit.functions, unit.specs, cache, store,
        interprocedural=unit.interprocedural, name=unit.name)


def _job_lessthan_stats(unit: WorkUnit, module: Module,
                        cache: FunctionAnalysisCache,
                        _store: Optional[AnalysisStore]) -> Dict[str, object]:
    """Constraint-generation/solving metrics (the Figure 11 measurement)."""
    analysis = cache.module_lessthan(module, unit.interprocedural)
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
                  _cache: FunctionAnalysisCache,
                  _store: Optional[AnalysisStore]) -> Dict[str, object]:
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
                     "module_hash", "labels", "statistics")


def run_work_unit(unit: WorkUnit,
                  store: Optional[AnalysisStore] = None) -> Dict[str, object]:
    """Compile ``unit.source`` and run its job; the single worker entry point.

    With a store, ``aaeval`` units are first looked up whole by source-text
    hash (:func:`~repro.engine.store.unit_key`): a hit skips compilation and
    analysis outright.  On a miss the job runs normally — drawing any
    function-level entries that do exist — and the merged payload is handed
    back for the coordinator to persist at both granularities.
    """
    with TRACER.span("engine.unit", unit=unit.name, kind=unit.kind):
        return _run_work_unit(unit, store)


def _run_work_unit(unit: WorkUnit,
                   store: Optional[AnalysisStore]) -> Dict[str, object]:
    if unit.kind not in JOBS:
        raise KeyError("unknown work-unit kind {!r}".format(unit.kind))
    memo_key = None
    # Only whole-module units are memoized at the unit level: a shard
    # (unit.functions set) evaluates a subset of the module, and persisting
    # its payload under the unit's source key would let a later whole-module
    # warm run pick up partial results.  Shards still share the
    # function-level entries.
    if store is not None and unit.kind in CACHEABLE_KINDS and unit.functions is None:
        memo_key = unit_key(unit.kind, unit.name, unit.source, unit.labels(),
                            unit.interprocedural)
        cached = store.get(memo_key)
        if cached is not None:
            payload = dict(cached)
            payload["store_hits"] = 1  # the one unit-level lookup that hit
            payload["store_misses"] = 0
            payload["new_entries"] = []
            # LRU touch: a read-only (worker-side) store ships the hit key
            # back for the coordinator to promote; a writable store already
            # touched it inside ``get``.
            payload["touched_keys"] = [memo_key] if store.readonly else []
            payload["pid"] = os.getpid()
            return payload
    module = compile_source(unit.source, module_name=unit.name)
    cache = FunctionAnalysisCache()
    payload = JOBS[unit.kind](unit, module, cache, store)
    if memo_key is not None:
        persisted = {field: payload[field] for field in _PERSISTED_FIELDS
                     if field in payload}
        payload.setdefault("new_entries", []).append((memo_key, persisted))
    return payload


#: read-only stores opened by this worker process, one per spec.  Reused
#: across the units a pool worker handles — the pickle backend deserializes
#: its whole file on open, so opening per unit would cost O(units x entries).
#: Process-local by construction; closed implicitly at worker exit.
_OPEN_STORES: Dict[Tuple[str, str, str], AnalysisStore] = {}


def _readonly_store(store_spec: Tuple[str, str, str]) -> AnalysisStore:
    store = _OPEN_STORES.get(store_spec)
    if store is None:
        path, version, backend = store_spec
        store = AnalysisStore(path, version=version, backend=backend,
                              readonly=True)
        _OPEN_STORES[store_spec] = store
    return store


def execute(task: Tuple[WorkUnit, Optional[Tuple[str, str, str]]]) -> Dict[str, object]:
    """Pool entry point: ``(unit, store_spec)`` with the store opened
    read-only inside the worker (the coordinator is the only writer)."""
    unit, store_spec = task
    if store_spec is None:
        return _ship_telemetry(run_work_unit(unit, store=None))
    store = _readonly_store(store_spec)
    try:
        return _ship_telemetry(run_work_unit(unit, store=store))
    finally:
        # Each unit's payload carries its own touched-key delta; dropping
        # the consumed log keeps long-lived pool workers from accumulating
        # one entry per store hit forever.
        store.touched_keys.clear()


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


def execute_indexed(task: Tuple[int, WorkUnit, Optional[Tuple[str, str, str]]]) \
        -> Tuple[int, Dict[str, object]]:
    """``imap_unordered`` entry point: tags the payload with its input index
    so the streaming coordinator can restore deterministic output order."""
    index, unit, store_spec = task
    return index, execute((unit, store_spec))
