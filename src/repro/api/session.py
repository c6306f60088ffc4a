"""The fluent ``Session`` facade — one coherent entry point to the system.

A :class:`Session` binds together the pieces every driver used to wire by
hand: a validated :class:`~repro.api.config.ReproConfig`, exactly one
:class:`~repro.passes.analysis_cache.FunctionAnalysisCache` (so repeated
work over the same modules hits memoized analyses), exactly one
:class:`~repro.engine.store.AnalysisStore` handle (opened lazily from the
config, shared across every workload call, closed once with the session),
and the execution engine's coordinator.

The three call shapes::

    from repro.api import ReproConfig, Session

    # fluent, single-module pipeline
    report = Session().compile(source).analyze().disambiguate()

    # aa-eval over one module, in-process, sharing the session cache
    result = session.evaluate(module, specs=(("basicaa",), ("lt",)))

    # a whole workload, fanned out over worker processes per the config
    with Session(ReproConfig(workers=4, store_path="warm.sqlite")) as session:
        results = session.run_workload(sources)

The session resolves its config once, at construction, and passes each
value to its one reader: the class limit to its
:class:`~repro.passes.analysis_cache.FunctionAnalysisCache` and to every
work unit, the verify mode to every evaluation, the byte budget to the
store it opens.  Pool workers receive the class limit and verify mode on
each :class:`~repro.engine.workunit.WorkUnit`.

``Session`` is the only evaluation entry point; the engine package holds
the coordinator internals it drives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.api.config import ReproConfig
from repro.alias.aaeval import collect_pointer_values
from repro.core.disambiguation import (
    DisambiguationReason,
    DisambiguationStatistics,
    PointerDisambiguator,
)
from repro.core.lessthan.analysis import LessThanAnalysis
from repro.engine import driver as _driver
from repro.engine.driver import UnitLike, UnitResult
from repro.engine.store import AnalysisStore
from repro.engine.workunit import DEFAULT_SPECS
from repro.frontend import compile_source
from repro.ir.module import Module
from repro.ir.printer import print_module
from repro.obs import TRACER, write_chrome_trace
from repro.passes.analysis_cache import FunctionAnalysisCache, RefreshResult
from repro.util.collector import collector_paused
from repro.verify import COUNTERS as _VERIFY_COUNTERS
from repro.verify import VerificationReport, verify_analysis


class _Unopened:
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<unopened>"


_UNOPENED = _Unopened()


@dataclass(frozen=True)
class PairVerdict:
    """One disambiguated pointer pair of a :class:`DisambiguationReport`."""

    function: str
    pointer_a: str
    pointer_b: str
    reason: DisambiguationReason

    @property
    def no_alias(self) -> bool:
        return bool(self.reason)


class DisambiguationReport:
    """The result of :meth:`CompiledUnit.disambiguate`: every unordered
    pointer pair of every defined function, with the criterion (if any)
    that proved it disjoint."""

    def __init__(self, pairs: List[PairVerdict],
                 statistics: DisambiguationStatistics) -> None:
        self.pairs = pairs
        self.statistics = statistics

    @property
    def queries(self) -> int:
        return len(self.pairs)

    @property
    def no_alias_count(self) -> int:
        return sum(1 for pair in self.pairs if pair.no_alias)

    @property
    def no_alias_ratio(self) -> float:
        return self.no_alias_count / self.queries if self.pairs else 0.0

    def resolved(self) -> List[PairVerdict]:
        """The pairs proven disjoint."""
        return [pair for pair in self.pairs if pair.no_alias]

    def __iter__(self):
        return iter(self.pairs)

    def __repr__(self) -> str:
        return "<DisambiguationReport {}/{} no-alias ({:.1%})>".format(
            self.no_alias_count, self.queries, self.no_alias_ratio)


class CompiledUnit:
    """One compiled module inside a session — the fluent pipeline stage.

    ``session.compile(src)`` returns one of these; :meth:`analyze` runs the
    strict-inequality pipeline (e-SSA conversion with its range solve →
    constraint solve) through the session cache and returns ``self`` for
    chaining; :meth:`disambiguate` answers every pointer-pair query.  The
    e-SSA conversion mutates the module in place (exactly like the original
    LLVM artifact's pass pipeline), so :meth:`print_ir` shows the
    pre-conversion form until the first analysis runs.
    """

    def __init__(self, session: "Session", name: str, source: str,
                 module: Module) -> None:
        self.session = session
        self.name = name
        self.source = source
        self.module = module

    # -- pipeline ----------------------------------------------------------------
    def analyze(self) -> "CompiledUnit":
        """Run (or hit) the less-than analysis; returns ``self`` to chain."""
        self.lessthan()
        return self

    def lessthan(self) -> LessThanAnalysis:
        """The (memoized) module-level less-than analysis."""
        return self.session.cache.module_lessthan(self.module)

    def disambiguator(self) -> PointerDisambiguator:
        """The session-cached disambiguator over :meth:`lessthan`."""
        return self.session.cache.module_disambiguator(self.module)

    def disambiguate(self) -> DisambiguationReport:
        """Query every unordered pointer pair of every defined function."""
        disambiguator = self.session.cache.module_disambiguator(self.module)
        # The session-cached disambiguator's query counter carries the
        # queries of earlier calls; the report counts this call's only.
        queries_before = disambiguator.statistics.queries
        pairs: List[PairVerdict] = []
        for function in self.module.defined_functions():
            pointers = collect_pointer_values(function)
            for i, j, reason in disambiguator.disambiguate_pairs(pointers):
                pairs.append(PairVerdict(
                    function.name,
                    getattr(pointers[i], "name", str(pointers[i])),
                    getattr(pointers[j], "name", str(pointers[j])),
                    reason))
        # Snapshot the counters: the session-cached disambiguator keeps
        # accumulating across later queries, and a report must describe
        # the state at the time it was produced.
        statistics = DisambiguationStatistics.from_dict(
            disambiguator.statistics.as_dict())
        statistics.queries -= queries_before
        return DisambiguationReport(pairs, statistics)

    def evaluate(self, specs: Sequence[Sequence[str]] = DEFAULT_SPECS,
                 **kwargs: object) -> UnitResult:
        """``aa-eval`` this module in-process through the session."""
        return self.session.evaluate(self.module, specs=specs, **kwargs)

    def verify(self) -> "VerificationReport":
        """Run the self-check suite over this module's solved pipeline.

        Analyzes first if the unit has not been analyzed yet (the checkers
        need a solved state to certify), then validates the IR/e-SSA form,
        the interval and less-than fixpoint certificates, and every NoAlias
        verdict of the session-cached disambiguator.  Returns the
        :class:`~repro.verify.VerificationReport`, also counted into
        :data:`repro.verify.COUNTERS`; inspect ``.ok`` or call
        ``.raise_if_failed()``.
        """
        report = verify_analysis(
            self.session.cache.module_lessthan(self.module),
            self.session.cache.module_disambiguator(self.module))
        _VERIFY_COUNTERS.record(report)
        return report

    # -- views -------------------------------------------------------------------
    def print_ir(self) -> str:
        """The module's printed IR in its *current* form."""
        return print_module(self.module)

    def __repr__(self) -> str:
        return "<CompiledUnit {} ({} instructions)>".format(
            self.name, self.module.instruction_count())


class UpdateResult:
    """What :meth:`Session.update_source` produced for one edit.

    ``result`` is the full :class:`UnitResult` — verdicts bit-identical to a
    cold evaluation of the same source; ``refresh`` names the functions the
    edit dirtied, left clean or removed.
    """

    def __init__(self, result: UnitResult, refresh: RefreshResult) -> None:
        self.result = result
        self.refresh = refresh

    def __repr__(self) -> str:
        return "<UpdateResult dirty={} clean={}>".format(
            len(self.refresh.dirty), len(self.refresh.clean))


class Session:
    """The facade owning one config, one analysis cache and one store handle.

    ``config`` defaults to ``ReproConfig()`` (i.e. whatever the ``REPRO_*``
    environment requests); keyword overrides construct or derive one, so
    ``Session(workers=4)`` and ``Session(config, store_path=None)`` both
    work.  Sessions are context managers — leaving the block closes the
    store handle (sessions without a configured store need no cleanup).
    """

    def __init__(self, config: Optional[ReproConfig] = None,
                 **overrides: object) -> None:
        if config is None:
            config = ReproConfig(**overrides)  # type: ignore[arg-type]
        elif overrides:
            config = config.replace(**overrides)
        self.config = config
        self.cache = FunctionAnalysisCache(class_limit=config.class_limit)
        self._compiled: List[CompiledUnit] = []
        #: the module each name's latest update_source call compiled.
        self._updated: Dict[str, Module] = {}
        self._store: Union[_Unopened, Optional[AnalysisStore]] = _UNOPENED
        # A configured trace path makes this session the tracer's owner: it
        # starts the capture here and writes the Chrome trace on close().
        self._trace_started = False
        if config.trace:
            TRACER.enable()
            self._trace_started = True

    # -- the store handle --------------------------------------------------------
    @property
    def store(self) -> Optional[AnalysisStore]:
        """The session's persistent store, opened lazily from the config
        (``None`` when no ``store_path`` is configured)."""
        if isinstance(self._store, _Unopened):
            path = self.config.store_path
            self._store = self._open_store(path) if path else None
        return self._store

    def _open_store(self, path: str) -> AnalysisStore:
        return AnalysisStore(path, max_bytes=self.config.store_max_bytes or 0)

    def _resolve_store_arg(self, store: object):
        """``(store object, caller owns/closes it)`` under the precedence
        chain: explicit argument > session store (from the config/env).

        ``None`` (the default) uses the session's store; ``False`` forces a
        persistence-free call; a path opens a store for this call only; an
        :class:`AnalysisStore` is used as-is.
        """
        if store is False:
            return None, False
        if store is None:
            return self.store, False
        if isinstance(store, AnalysisStore):
            return store, False
        return self._open_store(str(store)), True

    # -- lifecycle ----------------------------------------------------------------
    def close(self) -> None:
        """Close the session's store handle and flush any owned trace
        (idempotent)."""
        if isinstance(self._store, AnalysisStore):
            self._store.close()
        self._store = _UNOPENED
        if self._trace_started:
            self._trace_started = False
            write_chrome_trace(self.config.trace, TRACER.timeline())
            # Stop recording but keep the buffer: metrics() stays readable
            # after close, and tests inspect the captured timeline.
            TRACER.disable()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- the fluent pipeline -------------------------------------------------------
    def compile(self, source: str, name: str = "module") -> CompiledUnit:
        """Compile mini-C ``source`` into a session-bound pipeline stage."""
        module = compile_source(source, module_name=name)
        unit = CompiledUnit(self, name, source, module)
        self._compiled.append(unit)
        return unit

    def verify(self) -> VerificationReport:
        """Self-check every module this session has compiled.

        Runs the full suite (IR lint, σ lint, interval and LT fixpoint
        certificates, NoAlias verdict audit) over each
        :meth:`compile`-produced unit, analyzing through the session cache
        where needed, and returns the merged report.  An un-analyzed unit
        is analyzed on the spot — verification is only meaningful against a
        solved state.
        """
        merged = VerificationReport()
        for unit in self._compiled:
            merged = merged.merge(unit.verify())
        return merged

    # -- evaluation ----------------------------------------------------------------
    def evaluate(self, module: Module,
                 specs: Sequence[Sequence[str]] = DEFAULT_SPECS,
                 *, cache: Optional[FunctionAnalysisCache] = None) -> UnitResult:
        """``aa-eval`` an already compiled module in-process.

        Shares the session cache (pass ``cache=`` to substitute one), so the
        module's analyses are solved once; the query loops run on every
        call.  The store is never touched: it memoizes units by source text,
        and a compiled module has none.  A substituted cache brings its own
        class limit; the session's verify mode applies either way.
        """
        _driver._check_members(specs)
        payload = _driver.worker_module.evaluate_module_functions(
            module, specs, cache if cache is not None else self.cache,
            verify=self.config.verify)
        _driver._absorb_verify(payload)
        return UnitResult(payload)

    def update_source(self, name: str, source: str,
                      specs: Sequence[Sequence[str]] = DEFAULT_SPECS,
                      ) -> "UpdateResult":
        """Re-evaluate module ``name`` after an edit.

        The churn entry point: recompiles ``source``, diffs each function's
        own-IR hash against the previous ``update_source`` call for the same
        name (:meth:`FunctionAnalysisCache.refresh`, which also purges that
        compile's analyses), then evaluates in-process exactly like
        :meth:`evaluate`.  Under the paper's interprocedural less-than
        analysis every function's facts can depend on every caller, so the
        module is solved cold and verdicts are bit-identical to a cold
        evaluation of the same source.  The first call for a name reports
        every function dirty.  The store is never touched.

        The modules compiled here never leave the session, so the previous
        call's module for ``name`` is released
        (:meth:`~repro.ir.module.Module.release`) and reference counting
        frees it; the latest one lives as long as the session.  The cycle
        collector is paused for the call.  Modules from :meth:`compile` and
        modules passed to :meth:`evaluate` are never released.
        """
        with collector_paused():
            module = compile_source(source, module_name=name)
            refresh = self.cache.refresh(module)
            previous = self._updated.get(name)
            self._updated[name] = module
            if previous is not None:
                previous.release()
            result = self.evaluate(module, specs)
        return UpdateResult(result, refresh)

    def evaluate_source(self, name: str, source: str,
                        specs: Sequence[Sequence[str]] = DEFAULT_SPECS,
                        *, store: object = None) -> UnitResult:
        """``aa-eval`` one module from source: :meth:`run_workload` over the
        single unit ``(name, source)``."""
        return self.run_workload([(name, source)], specs=specs,
                                 store=store)[0]

    def run_workload(self, units: Sequence[UnitLike], kind: str = "aaeval",
                     specs: Sequence[Sequence[str]] = DEFAULT_SPECS,
                     *, workers: Optional[int] = None,
                     store: object = None,
                     max_tasks_per_child: Optional[int] = None,
                     on_result=None) -> List[UnitResult]:
        """Evaluate one work unit per program, possibly over a worker pool.

        ``units`` may be :class:`WorkUnit` objects, ``(name, source)``
        tuples or anything with ``name``/``source`` attributes.  The
        returned list is input-ordered regardless of worker scheduling;
        ``on_result`` observes each :class:`UnitResult` as it lands.
        """
        work = _driver._normalize_units(units, kind, specs,
                                        self.config.class_limit,
                                        self.config.verify)
        worker_count = self._worker_count(workers)
        store_obj, owned = self._resolve_store_arg(store)
        on_payload = None
        if on_result is not None:
            on_payload = lambda payload: on_result(UnitResult(payload))
        try:
            payloads = _driver._run_units(work, worker_count, store_obj,
                                          max_tasks_per_child,
                                          on_payload=on_payload)
        finally:
            if owned and store_obj is not None:
                store_obj.close()
        return [UnitResult(payload) for payload in payloads]

    def _worker_count(self, workers: Optional[int]) -> int:
        if workers is None:
            return self.config.workers
        # Route the explicit argument through the config's validation so a
        # bad value fails with the same actionable message everywhere.
        return self.config.replace(workers=workers).workers

    # -- introspection ---------------------------------------------------------------
    def statistics(self) -> Dict[str, object]:
        """Cache and store counters for dashboards/tests."""
        stats: Dict[str, object] = {"cache": self.cache.statistics.as_dict()}
        stats["verify"] = _VERIFY_COUNTERS.as_dict()
        store = self._store if isinstance(self._store, AnalysisStore) else None
        if store is not None:
            stats["store"] = {
                "hits": store.hits,
                "misses": store.misses,
                "hit_rate": store.hit_rate,
                "evictions": store.evictions,
                "entries": len(store),
                "size_bytes": store.size_bytes(),
            }
        return stats

    def metrics(self) -> Dict[str, object]:
        """Programmatic observability: per-phase latencies plus counters.

        ``phases`` maps span names to ``count``/``total``/``self``/``min``/
        ``max``/``p50``/``p99`` (seconds); ``lanes`` carries per-worker busy
        time and skew when units ran in a pool.  Empty when the session is
        not tracing (construct it with ``ReproConfig(trace=...)`` or set
        ``REPRO_TRACE``).  ``cache``/``store`` counters and the interval
        intern cache's lifetime counters (``interval_intern``) are always
        present.
        """
        from repro.rangeanalysis.interval import Interval

        timeline = TRACER.timeline()
        metrics: Dict[str, object] = {
            "phases": timeline.phase_summary(),
            "lanes": timeline.lane_summary(),
            "interval_intern": Interval.intern_info(),
        }
        metrics.update(self.statistics())
        return metrics

    def __repr__(self) -> str:
        return "<Session workers={} store={}>".format(
            self.config.workers, self.config.store_path)
