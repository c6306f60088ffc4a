"""Outside-in layer tracing for the traced benchmark run.

Spans are recorded by the benchmark itself, around the calls into each
layer's public functions; the program's own tracer (``repro.obs``) stays
off.  :func:`probes` wraps those public functions for the duration of a
traced pass: class methods on the class, module functions at the import
site the program calls them through.  The traced pass therefore runs the
program's own code path, in the program's own order, with a span around
every layer boundary.

Each span records its name, start, end, parent and the run id.  Spans are
kept in memory; :meth:`Recorder.dump` writes them out at the end of a run.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "index", "info")

    def __init__(self, name: str, start: float, parent: Optional[int],
                 run: int, index: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.index = index
        #: what a probe kept of the wrapped call's return value, for the
        #: layer's counters.
        self.info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "run": self.run}


class Recorder:
    """An in-memory span buffer with a parent stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.run = 0

    def begin_run(self) -> int:
        """Start a new run id (one traced pass, or one traced edit)."""
        self.run += 1
        return self.run

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), parent, self.run,
                      len(self.spans))
        self.spans.append(record)
        self._stack.append(record.index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def run_spans(self, run: int) -> List[Span]:
        return [span for span in self.spans if span.run == run]

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump([span.as_dict() for span in self.spans], handle)


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children of one parent may overlap each other only when they ran in
    parallel; their covered time is the union of their intervals.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.duration - covered)
    return result


def self_time_by_name(spans: List[Span]) -> Dict[str, float]:
    """Total self time per span name, in seconds."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def top_level_time(spans: List[Span]) -> float:
    """Summed duration of the spans that have no parent."""
    return sum(span.duration for span in spans if span.parent is None)


# ---------------------------------------------------------------------------
# Probes: the layer boundaries
# ---------------------------------------------------------------------------

def _aaeval_span(args: tuple) -> str:
    label = getattr(args[1], "name", "")
    return {"basicaa": "aaeval.basicaa", "lt": "aaeval.lt"}.get(
        label, "aaeval.chain")


def _statistics(result):
    return result.statistics


def _probe_table():
    """``(owner, attribute, span name, summary)`` for every boundary.

    A span's name is a string or a function of the call's positional
    arguments; ``summary`` maps the call's return value to what the
    benchmark keeps for the layer's counters (``None`` keeps nothing).
    """
    import repro.engine.worker as worker
    import repro.frontend.lowering as lowering
    import repro.ir.callgraph as callgraph
    from repro.api.session import Session
    from repro.passes.analysis_cache import FunctionAnalysisCache

    return [
        (lowering, "parse_program", "frontend.parse", None),
        (lowering, "lower_program", "frontend.lower",
         lambda module: module.instruction_count()),
        (lowering, "promote_memory_to_registers", "ir.mem2reg", None),
        (lowering, "verify_module", "ir.verify", None),
        (callgraph, "module_fingerprints", "ir.fingerprint", None),
        (worker, "module_fingerprints", "ir.fingerprint", None),
        (FunctionAnalysisCache, "ensure_essa", "essa.ensure", lambda info: info),
        (FunctionAnalysisCache, "ranges", "range.solve", _statistics),
        (FunctionAnalysisCache, "module_lessthan", "lt.solve", _statistics),
        (FunctionAnalysisCache, "module_disambiguator", "disamb.build", None),
        (FunctionAnalysisCache, "refresh", "passes.refresh",
         lambda refresh: (len(refresh.dirty), refresh.migrated)),
        (worker, "evaluate_function_verdicts", _aaeval_span, None),
        (Session, "evaluate", "churn.evaluate", None),
    ]


def _wrap(recorder: Recorder, function: Callable, naming, summary) -> Callable:
    def probe(*args, **kwargs):
        name = naming(args) if callable(naming) else naming
        with recorder.span(name) as span:
            result = function(*args, **kwargs)
        if summary is not None:
            span.info = summary(result)
        return result
    probe.__wrapped__ = function
    return probe


@contextlib.contextmanager
def probes(recorder: Recorder) -> Iterator[None]:
    """Wrap every layer boundary with a span for the duration of the block.

    Probes are process-local: pool workers started inside the block are not
    traced, so only serial passes run under it.
    """
    saved = []
    try:
        for owner, attribute, naming, summary in _probe_table():
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(recorder, original, naming, summary))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
