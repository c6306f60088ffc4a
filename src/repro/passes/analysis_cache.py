"""Memoization of per-function and per-module analysis state.

The paper's evaluation (``aa-eval``) asks O(n²) queries per function, and
every configuration of the harness (``LT``, ``BA + LT``, ``BA + CF`` ...)
re-runs the same sub-analyses on the same, unchanged module: one e-SSA
conversion per function (which solves the function's one
:class:`~repro.rangeanalysis.analysis.RangeAnalysis`) and one constraint
solve per module
:class:`~repro.core.lessthan.analysis.LessThanAnalysis`.
:class:`FunctionAnalysisCache` memoizes that invariant state so no analysis
is ever computed twice on an unchanged module:

* e-SSA conversion status per function,
* the :class:`RangeAnalysis` per function (the conversion's own solve),
* the :class:`LessThanAnalysis` per module (keyed on the interprocedural
  flag),
* the :class:`~repro.core.disambiguation.PointerDisambiguator` per module
  analysis, so its per-value tables survive across evaluation rounds,
* the engine's evaluation payloads per function and spec label.

Invalidation is explicit: after mutating a function, call
:meth:`FunctionAnalysisCache.invalidate` with it (module-level entries built
on top of it are dropped too).  The cache deliberately does *not* try to
detect mutations — the IR has no version counter — so the contract is the
same as LLVM's analysis manager: whoever transforms the IR invalidates.

``LessThanAnalysis``, ``StrictInequalityAliasAnalysis`` and the benchmark
drivers all accept a cache instance; wiring one object through a whole
evaluation makes repeated module-level ``aa-eval`` hit precomputed state
everywhere.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.essa.transform import EssaInfo, convert_to_essa
from repro.ir import callgraph
from repro.ir.function import Function
from repro.ir.module import Module
from repro.obs import TRACER
from repro.rangeanalysis.analysis import RangeAnalysis

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.disambiguation import PointerDisambiguator
    from repro.core.lessthan.analysis import LessThanAnalysis

# ``repro.core.sraa`` and ``repro.engine.worker`` import this module, so the
# ``repro.core`` and ``repro.engine`` modules it uses are imported lazily
# inside the methods below to keep the import graph acyclic.


class CacheStatistics:
    """Hit/miss counters, for tests, benchmarks and ``repro stats``.

    ``hits``/``misses`` aggregate every lookup; :meth:`record` additionally
    keeps per-kind counters (``essa``, ``ranges``, ``lessthan``,
    ``evaluation``, ...) so the stats surface can show *which* table a cold
    run is missing in.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.by_kind: Dict[str, Dict[str, int]] = {}

    def record(self, kind: str, hit: bool) -> None:
        """Count one lookup of ``kind``, updating the aggregates too."""
        counters = self.by_kind.setdefault(kind, {"hits": 0, "misses": 0})
        if hit:
            self.hits += 1
            counters["hits"] += 1
        else:
            self.misses += 1
            counters["misses"] += 1

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "hit_ratio": self.hit_ratio,
        }

    def __repr__(self) -> str:
        return "<CacheStatistics hits={} misses={} invalidations={}>".format(
            self.hits, self.misses, self.invalidations)


def _module_content_hash(module: Module) -> str:
    """The module's content hash under the engine's addressing convention
    (printed IR minus the name line, so renamed-but-identical modules match)."""
    from repro.engine.store import text_hash
    from repro.engine.worker import module_content_text

    return text_hash(module_content_text(module))


class _ModuleSnapshot:
    """One refresh baseline: the fingerprints and function objects of one
    compile of a module (keyed by module name across recompiles)."""

    __slots__ = ("prints", "functions", "module_hash")

    def __init__(self, prints: callgraph.ModuleFingerprints,
                 functions: Dict[str, Function], module_hash: str) -> None:
        self.prints = prints
        self.functions = functions
        self.module_hash = module_hash


class RefreshResult:
    """What :meth:`FunctionAnalysisCache.refresh` decided about one edit."""

    __slots__ = ("dirty", "clean", "removed", "migrated")

    def __init__(self, dirty: List[str], clean: List[str],
                 removed: List[str], migrated: int) -> None:
        #: function names whose own IR changed (or that are new) — their
        #: cached state was dropped and must be recomputed.
        self.dirty = dirty
        #: function names whose own IR is unchanged.
        self.clean = clean
        #: function names present in the previous snapshot only.
        self.removed = removed
        #: evaluation payloads carried over to the new function objects.
        self.migrated = migrated

    def __repr__(self) -> str:
        return "<RefreshResult dirty={} clean={} removed={} migrated={}>".format(
            len(self.dirty), len(self.clean), len(self.removed), self.migrated)


class FunctionAnalysisCache:
    """Memoizes e-SSA status, range analyses and module less-than analyses.

    All tables key on object identity (functions and modules hash by
    identity), matching the rest of the code base.  :meth:`refresh` bridges
    identities across recompiles: it diffs call-graph-aware fingerprints
    (:mod:`repro.ir.callgraph`) against the previous snapshot of the same
    module name and migrates still-valid state onto the new objects.
    """

    def __init__(self) -> None:
        self._essa: Dict[Function, EssaInfo] = {}
        self._ranges: Dict[Function, RangeAnalysis] = {}
        self._module_lessthan: Dict[Tuple[Module, bool], "LessThanAnalysis"] = {}
        self._module_disambiguators: Dict[Tuple[Module, bool], "PointerDisambiguator"] = {}
        self._evaluations: Dict[Tuple[Function, str], object] = {}
        #: per-function label index over ``_evaluations`` so invalidation
        #: touches only that function's entries instead of scanning them all.
        self._function_evaluations: Dict[Function, Set[str]] = {}
        #: refresh baselines by module name.
        self._snapshots: Dict[str, _ModuleSnapshot] = {}
        self.statistics = CacheStatistics()

    # -- e-SSA conversion ---------------------------------------------------------
    def ensure_essa(self, function: Function) -> EssaInfo:
        """Convert ``function`` to e-SSA form once; later calls are hits.

        The conversion mutates the IR — the one mutation the cache itself
        performs and can therefore track — and its range analysis replaces
        any ranges cached for the pre-conversion form.  Evaluation payloads
        stay: the engine addresses them by the pre-conversion IR, and they
        describe the result of the full pipeline.
        """
        info = self._essa.get(function)
        if info is not None:
            self.statistics.record("essa", hit=True)
            return info
        self.statistics.record("essa", hit=False)
        if getattr(function, "essa_form", False):
            # Converted outside the cache: nothing to do, record an empty
            # summary so later calls hit.
            info = EssaInfo()
        else:
            with TRACER.span("essa.ensure", fn=function.name):
                info = convert_to_essa(function)
            self._ranges[function] = info.ranges
        self._essa[function] = info
        return info

    # -- range analysis ------------------------------------------------------------
    def ranges(self, function: Function) -> RangeAnalysis:
        """The (memoized) range analysis of ``function`` in its current form."""
        cached = self._ranges.get(function)
        if cached is not None:
            self.statistics.record("ranges", hit=True)
            return cached
        self.statistics.record("ranges", hit=False)
        analysis = RangeAnalysis(function)
        self._ranges[function] = analysis
        return analysis

    # -- less-than analysis -----------------------------------------------------------
    def module_lessthan(self, module: Module,
                        interprocedural: bool = True) -> "LessThanAnalysis":
        """The (memoized) whole-module less-than analysis."""
        from repro.core.lessthan.analysis import LessThanAnalysis

        key = (module, interprocedural)
        cached = self._module_lessthan.get(key)
        if cached is not None:
            self.statistics.record("lessthan", hit=True)
            return cached
        self.statistics.record("lessthan", hit=False)
        analysis = LessThanAnalysis(module, build_essa=True,
                                    interprocedural=interprocedural, cache=self)
        self._module_lessthan[key] = analysis
        return analysis

    # -- disambiguators ------------------------------------------------------------
    def module_disambiguator(self, module: Module,
                             interprocedural: bool = True) -> "PointerDisambiguator":
        """A shared, table-backed disambiguator over :meth:`module_lessthan`."""
        from repro.core.disambiguation import PointerDisambiguator

        key = (module, interprocedural)
        cached = self._module_disambiguators.get(key)
        if cached is not None:
            self.statistics.record("disambiguator", hit=True)
            return cached
        self.statistics.record("disambiguator", hit=False)
        analysis = self.module_lessthan(module, interprocedural)
        disambiguator = PointerDisambiguator(analysis)
        self._module_disambiguators[key] = disambiguator
        return disambiguator

    # -- evaluation payloads -------------------------------------------------------
    def get_evaluation(self, function: Function, label: str) -> Optional[object]:
        """The memoized evaluation payload of ``(function, label)``, if any.

        Payloads are opaque, picklable objects (the execution engine stores
        verdict counters plus the per-pair verdict stream).  They live beside
        the live analysis objects so that a payload warm-loaded from a
        persistent :class:`~repro.engine.store.AnalysisStore` short-circuits
        the whole analysis pipeline: a hit here means neither range analysis,
        e-SSA conversion, the constraint solve nor the O(n²) query loop runs
        for that function.
        """
        cached = self._evaluations.get((function, label))
        self.statistics.record("evaluation", hit=cached is not None)
        return cached

    def put_evaluation(self, function: Function, label: str, payload: object) -> None:
        """Record the evaluation payload of ``(function, label)``.

        Called both by the engine after computing a function fresh and when
        warm-loading persisted results from an analysis store.
        """
        self._evaluations[(function, label)] = payload
        self._function_evaluations.setdefault(function, set()).add(label)

    def evaluation_count(self) -> int:
        return len(self._evaluations)

    # -- invalidation -----------------------------------------------------------------
    def _drop_function(self, function: Function) -> None:
        self._essa.pop(function, None)
        self._ranges.pop(function, None)
        self._drop_function_evaluations(function)

    def _drop_module(self, module: Module) -> None:
        for key in [k for k in self._module_lessthan if k[0] is module]:
            del self._module_lessthan[key]
        for key in [k for k in self._module_disambiguators if k[0] is module]:
            del self._module_disambiguators[key]

    def _drop_function_evaluations(self, function: Function) -> None:
        # The per-function label index makes this O(entries for *this*
        # function); the old full-table scan cost O(all entries) per
        # invalidation, quadratic over a churn session.
        for label in self._function_evaluations.pop(function, ()):
            self._evaluations.pop((function, label), None)

    def _drop_one_evaluation(self, function: Function, label: str) -> None:
        self._evaluations.pop((function, label), None)
        labels = self._function_evaluations.get(function)
        if labels is not None:
            labels.discard(label)
            if not labels:
                del self._function_evaluations[function]

    def invalidate(self, function: Optional[Function] = None) -> None:
        """Drop cached state for ``function`` (or everything, when ``None``).

        Module-level analyses covering the function's module are dropped too,
        since their constraints embed the function's instructions.  Sibling
        functions are invalidated *per call-graph reachability*, not
        wholesale: an edit's interprocedural facts can only reach the edited
        function's transitive callees (facts flow caller → callee) and its
        dependency fingerprint only covers its transitive callers, so
        evaluation payloads of functions outside both closures survive.  The
        reachability is read from the post-mutation call graph; an edit that
        *removes* call edges should invalidate both endpoints (or everything)
        explicitly.
        """
        self.statistics.invalidations += 1
        if function is None:
            self._essa.clear()
            self._ranges.clear()
            self._module_lessthan.clear()
            self._module_disambiguators.clear()
            self._evaluations.clear()
            self._function_evaluations.clear()
            self._snapshots.clear()
            return
        self._drop_function(function)
        module = function.parent
        if module is not None:
            self._drop_module(module)
            graph = callgraph.CallGraph(module)
            if function.name in graph.callees:
                coupled = (graph.transitive_callers(function.name)
                           | graph.transitive_callees(function.name))
                coupled.discard(function.name)
                for other in module.defined_functions():
                    if other is not function and other.name in coupled:
                        self._drop_function_evaluations(other)

    # -- incremental refresh -----------------------------------------------------------
    def refresh(self, module: Module) -> RefreshResult:
        """Diff ``module`` against the previous snapshot of the same module
        name and invalidate exactly the edit's blast radius.

        The first call per module name records a baseline (every function
        reported dirty).  Later calls classify each function by its own-IR
        hash, then for every *clean* function migrate each evaluation payload
        whose fingerprint scope (see
        :func:`repro.engine.workunit.label_fingerprint_scope`) is unchanged
        onto the new compile's function object — region-scoped entries
        survive edits outside ``{function} ∪ transitive callers``,
        dependency-scoped entries survive edits outside the callee closure,
        module-scoped entries only a byte-identical module.  Stale state of
        the previous compile's objects is purged, so the cache holds one
        analysis per function of the current compile.

        Snapshots hash whatever form the functions are currently in, so call
        ``refresh`` at a consistent pipeline point (before e-SSA conversion,
        like the engine's content addressing).
        """
        from repro.engine.workunit import label_fingerprint_scope

        # Looked up on the module at call time, so a wrapper installed on
        # ``callgraph.module_fingerprints`` (a tracing probe) sees this call.
        prints = callgraph.module_fingerprints(module)
        functions = {function.name: function
                     for function in module.defined_functions()}
        module_hash = _module_content_hash(module)
        snapshot = _ModuleSnapshot(prints, functions, module_hash)
        previous = self._snapshots.get(module.name)
        self._snapshots[module.name] = snapshot
        if previous is None:
            return RefreshResult(dirty=sorted(functions), clean=[],
                                 removed=[], migrated=0)

        dirty = [name for name in sorted(functions)
                 if prints.own[name] != previous.prints.own.get(name)]
        dirty_set = set(dirty)
        clean = [name for name in sorted(functions) if name not in dirty_set]
        removed = [name for name in sorted(previous.functions)
                   if name not in functions]
        for name in sorted(functions):
            self.statistics.record("refresh", hit=name not in dirty_set)

        migrated = 0
        for name in clean:
            old_function = previous.functions.get(name)
            if old_function is None:
                continue
            for label in sorted(self._function_evaluations.get(old_function, ())):
                scope = label_fingerprint_scope(label)
                if scope == "module":
                    valid = previous.module_hash == module_hash
                elif scope == "region":
                    valid = (previous.prints.region.get(name)
                             == prints.region[name])
                else:
                    valid = (previous.prints.fingerprint.get(name)
                             == prints.fingerprint[name])
                if not valid:
                    if old_function is functions[name]:
                        # In-place refresh: the stale payload sits on the
                        # *current* object and must go.
                        self._drop_one_evaluation(old_function, label)
                    continue
                payload = self._evaluations.get((old_function, label))
                if payload is not None and old_function is not functions[name]:
                    self.put_evaluation(functions[name], label, payload)
                    migrated += 1

        # Purge the previous compile's (now unreachable) objects, and stale
        # state when refreshing the same compile in place.
        for name, old_function in previous.functions.items():
            if old_function is functions.get(name) and name not in dirty_set:
                continue
            self._drop_function(old_function)
        old_modules = {old_function.parent
                       for old_function in previous.functions.values()
                       if old_function.parent is not None
                       and old_function.parent is not module}
        stale_modules = set(old_modules)
        if dirty or removed:
            stale_modules.add(module)
        for stale in stale_modules:
            self._drop_module(stale)
        return RefreshResult(dirty=dirty, clean=clean, removed=removed,
                             migrated=migrated)

    # -- introspection ---------------------------------------------------------------
    def cached_functions(self) -> int:
        return len(self._ranges)

    def __repr__(self) -> str:
        return "<FunctionAnalysisCache functions={} {}>".format(
            self.cached_functions(), self.statistics)
