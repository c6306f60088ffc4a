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
  analysis, so its per-value tables survive across evaluation rounds.

Verdicts are not memoized here: the query loop re-runs on every
evaluation, over the memoized analyses.

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

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

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
# ``repro.core`` modules it uses are imported lazily inside the methods below
# to keep the import graph acyclic.


class CacheStatistics:
    """Hit/miss counters, for tests, benchmarks and ``repro stats``.

    ``hits``/``misses`` aggregate every lookup; :meth:`record` additionally
    keeps per-kind counters (``essa``, ``ranges``, ``lessthan``,
    ``disambiguator``) so the stats surface can show *which* table a cold
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


class _ModuleSnapshot:
    """One refresh baseline: the own hashes and function objects of one
    compile of a module (keyed by module name across recompiles)."""

    __slots__ = ("own", "functions")

    def __init__(self, own: Dict[str, str],
                 functions: Dict[str, Function]) -> None:
        self.own = own
        self.functions = functions


class RefreshResult:
    """What :meth:`FunctionAnalysisCache.refresh` decided about one edit."""

    __slots__ = ("dirty", "clean", "removed", "migrated")

    def __init__(self, dirty: List[str], clean: List[str],
                 removed: List[str]) -> None:
        #: function names whose own IR changed (or that are new).
        self.dirty = dirty
        #: function names whose own IR is unchanged.
        self.clean = clean
        #: function names present in the previous snapshot only.
        self.removed = removed
        #: always 0: nothing carries over between compiles.  Kept because
        #: perfbench reads it.
        self.migrated = 0

    def __repr__(self) -> str:
        return "<RefreshResult dirty={} clean={} removed={}>".format(
            len(self.dirty), len(self.clean), len(self.removed))


class FunctionAnalysisCache:
    """Memoizes e-SSA status, range analyses and module less-than analyses.

    All tables key on object identity (functions and modules hash by
    identity), matching the rest of the code base.  :meth:`refresh` tracks
    recompiles of one module name: it reports which functions an edit
    dirtied and purges the previous compile's state.
    """

    def __init__(self) -> None:
        self._essa: Dict[Function, EssaInfo] = {}
        self._ranges: Dict[Function, RangeAnalysis] = {}
        self._module_lessthan: Dict[Tuple[Module, bool], "LessThanAnalysis"] = {}
        self._module_disambiguators: Dict[Tuple[Module, bool], "PointerDisambiguator"] = {}
        #: refresh baselines by module name.
        self._snapshots: Dict[str, _ModuleSnapshot] = {}
        self.statistics = CacheStatistics()

    # -- e-SSA conversion ---------------------------------------------------------
    def ensure_essa(self, function: Function) -> EssaInfo:
        """Convert ``function`` to e-SSA form once; later calls are hits.

        The conversion mutates the IR — the one mutation the cache itself
        performs and can therefore track — and its range analysis replaces
        any ranges cached for the pre-conversion form.
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

    # -- invalidation -----------------------------------------------------------------
    def _drop_function(self, function: Function) -> None:
        self._essa.pop(function, None)
        self._ranges.pop(function, None)

    def _drop_module(self, module: Module) -> None:
        for key in [k for k in self._module_lessthan if k[0] is module]:
            del self._module_lessthan[key]
        for key in [k for k in self._module_disambiguators if k[0] is module]:
            del self._module_disambiguators[key]

    def invalidate(self, function: Optional[Function] = None) -> None:
        """Drop cached state for ``function`` (or everything, when ``None``).

        Module-level analyses covering the function's module are dropped too,
        since their constraints embed the function's instructions.  Sibling
        functions keep their e-SSA status and ranges: both depend on the
        function's own IR only.
        """
        self.statistics.invalidations += 1
        if function is None:
            self._essa.clear()
            self._ranges.clear()
            self._module_lessthan.clear()
            self._module_disambiguators.clear()
            self._snapshots.clear()
            return
        self._drop_function(function)
        if function.parent is not None:
            self._drop_module(function.parent)

    # -- recompiles --------------------------------------------------------------------
    def refresh(self, module: Module) -> RefreshResult:
        """Diff ``module`` against the previous snapshot of the same module
        name and purge that compile's state.

        The first call per module name records a baseline (every function
        reported dirty).  Later calls classify each function by its own-IR
        hash (:mod:`repro.ir.callgraph`) as dirty, clean or removed, then
        drop the previous compile's per-function and per-module analyses, so
        the cache holds state for the current compile only.  Refreshing the
        same compile in place keeps the state of its clean functions.

        Snapshots hash whatever form the functions are currently in, so call
        ``refresh`` at a consistent pipeline point (before e-SSA conversion).
        """
        # Looked up on the module at call time, so a wrapper installed on
        # ``callgraph.module_fingerprints`` (a tracing probe) sees this call.
        own = callgraph.module_fingerprints(module).own
        functions = {function.name: function
                     for function in module.defined_functions()}
        previous = self._snapshots.get(module.name)
        self._snapshots[module.name] = _ModuleSnapshot(own, functions)
        if previous is None:
            return RefreshResult(dirty=sorted(functions), clean=[], removed=[])

        dirty = [name for name in sorted(functions)
                 if own[name] != previous.own.get(name)]
        dirty_set = set(dirty)
        clean = [name for name in sorted(functions) if name not in dirty_set]
        removed = [name for name in sorted(previous.functions)
                   if name not in functions]
        for name, old_function in previous.functions.items():
            if old_function is functions.get(name) and name not in dirty_set:
                continue
            self._drop_function(old_function)
        stale_modules = {old_function.parent
                         for old_function in previous.functions.values()
                         if old_function.parent is not None
                         and old_function.parent is not module}
        if dirty or removed:
            stale_modules.add(module)
        for stale in stale_modules:
            self._drop_module(stale)
        return RefreshResult(dirty=dirty, clean=clean, removed=removed)

    # -- introspection ---------------------------------------------------------------
    def cached_functions(self) -> int:
        return len(self._ranges)

    def __repr__(self) -> str:
        return "<FunctionAnalysisCache functions={} {}>".format(
            self.cached_functions(), self.statistics)
