"""Phase-scoped tracing: spans and always-on timers.

The instrument plane of the pipeline.  Every layer (frontend, mem2reg,
e-SSA, both fixed-point solvers, the disambiguator, the execution engine)
opens *spans* around its phases::

    from repro.obs import TRACER

    with TRACER.span("range.solve", fn=function.name):
        ...

Spans nest: the tracer keeps a stack, so each finished span records its
depth and its *self* time (duration minus the time spent in child spans).
The buffer of finished spans is a list of plain picklable dicts — worker
processes drain it into their result payloads and the coordinator merges
the shards onto one :class:`~repro.obs.timeline.Timeline` with per-worker
lanes.

**The disabled path is a no-op costing one attribute check.**  When
``TRACER.enabled`` is false, :meth:`Tracer.span` returns a shared singleton
whose ``__enter__``/``__exit__`` do nothing: no clock reads, no
allocation, no buffer growth.  That is the contract the solver hot-path
benchmark gates (disabled tracing within 2% of an uninstrumented run).

:meth:`Tracer.timer` is the *always-on* variant: it measures wall time
whether or not tracing is enabled (and additionally records a span when it
is).  The solvers route their ``solve_time_seconds`` statistics through it,
so timing collection has exactly one home — and wall times stay out of
verdict payloads, which is what keeps ``eval --json`` output byte-identical
between traced and untraced runs.

While enabled, the tracer also hooks :data:`gc.callbacks`: every cycle
collection becomes a ``gc.collect`` span carrying its ``generation`` and
the number of objects it ``collected``, so collector time shows in the
timeline beside the phases it interrupts.

This module imports nothing from the rest of the package (like
:mod:`repro.api.config`), so any layer may depend on it without cycles.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Sequence


class _NoopSpan:
    """The shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    #: mirrors :attr:`Span.duration` so callers may read it unconditionally.
    duration = 0.0

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *_exc: object) -> bool:
        return False

    def annotate(self, **_attrs: object) -> None:
        """Discard attributes (the enabled span attaches them)."""


NOOP_SPAN = _NoopSpan()


class Span:
    """One phase-scoped measurement, used as a context manager.

    On exit the span appends a plain-dict record to its tracer's buffer:
    ``name``, ``ts`` (start, process-local ``perf_counter`` seconds),
    ``dur``, ``self`` (duration minus child-span time), ``depth`` and
    ``args`` (the keyword attributes given to :meth:`Tracer.span`).
    """

    __slots__ = ("_tracer", "name", "args", "start", "duration",
                 "_child_seconds", "_depth")

    def __init__(self, tracer: "Tracer", name: str,
                 args: Dict[str, object]) -> None:
        self._tracer = tracer
        self.name = name
        self.args = args
        self.start = 0.0
        self.duration = 0.0
        self._child_seconds = 0.0
        self._depth = 0

    def annotate(self, **attrs: object) -> None:
        """Attach attributes discovered mid-phase (e.g. result counts)."""
        self.args.update(attrs)

    def __enter__(self) -> "Span":
        stack = self._tracer._stack
        self._depth = len(stack)
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *_exc: object) -> bool:
        end = time.perf_counter()
        self.duration = end - self.start
        tracer = self._tracer
        stack = tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # pragma: no cover - unbalanced exits
            stack.remove(self)
        if stack:
            stack[-1]._child_seconds += self.duration
        tracer._spans.append({
            "name": self.name,
            "ts": self.start,
            "dur": self.duration,
            "self": max(self.duration - self._child_seconds, 0.0),
            "depth": self._depth,
            "args": self.args,
        })
        return False


class Timer:
    """An always-on stopwatch, optionally recording a span.

    ``seconds`` is measured with ``perf_counter`` regardless of the tracer
    state, so statistics that must survive untraced runs (the solvers'
    ``solve_time_seconds``) keep working; when tracing is enabled the
    wrapped span lands in the buffer too.
    """

    __slots__ = ("seconds", "_span", "_start")

    def __init__(self, span: object) -> None:
        self._span = span
        self._start = 0.0
        self.seconds = 0.0

    def __enter__(self) -> "Timer":
        self._span.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.seconds = time.perf_counter() - self._start
        return bool(self._span.__exit__(*exc))


class Tracer:
    """The process-wide tracer: span factory and buffer.

    One instance (:data:`TRACER`) exists per process.  ``enabled`` starts
    false; the :class:`~repro.api.session.Session` enables it when its
    config carries a ``trace`` path, the CLI enables it for
    ``stats --timings``, and pool workers enable it in their initializer
    when the coordinator's tracer is on.
    """

    __slots__ = ("enabled", "_spans", "_stack", "_epoch", "_gc_start")

    def __init__(self) -> None:
        self.enabled = False
        self._spans: List[Dict[str, object]] = []
        self._stack: List[Span] = []
        self._epoch: Optional[float] = None
        self._gc_start = 0.0

    # -- recording ---------------------------------------------------------------
    def span(self, name: str, **attrs: object):
        """A context manager timing one phase; shared no-op when disabled."""
        if not self.enabled:
            return NOOP_SPAN
        return Span(self, name, attrs)

    def timer(self, name: str, **attrs: object) -> Timer:
        """An always-measuring :class:`Timer` (span recorded when enabled)."""
        if not self.enabled:
            return Timer(NOOP_SPAN)
        return Timer(Span(self, name, attrs))

    def _on_collect(self, phase: str, info: Dict[str, int]) -> None:
        """The :data:`gc.callbacks` hook: one ``gc.collect`` span per
        collection, billed as a child of the span it interrupted."""
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        if not self.enabled:
            return
        duration = time.perf_counter() - self._gc_start
        stack = self._stack
        if stack:
            stack[-1]._child_seconds += duration
        self._spans.append({
            "name": "gc.collect",
            "ts": self._gc_start,
            "dur": duration,
            "self": duration,
            "depth": len(stack),
            "args": {"generation": info["generation"],
                     "collected": info["collected"]},
        })

    # -- lifecycle ---------------------------------------------------------------
    def enable(self) -> None:
        """Start a fresh capture (clears the buffer)."""
        if not self.enabled:
            self.reset()
            self.enabled = True
        if self._on_collect not in gc.callbacks:
            gc.callbacks.append(self._on_collect)

    def disable(self) -> None:
        """Stop recording; the captured buffer stays readable."""
        self.enabled = False
        if self._on_collect in gc.callbacks:
            gc.callbacks.remove(self._on_collect)

    def reset(self) -> None:
        self._spans = []
        self._stack = []

    @contextmanager
    def suppress(self) -> Iterator[None]:
        """Stop recording for a ``with`` block, restoring the previous state.

        The self-check suite re-drives production code paths (the
        disambiguator's pair queries) purely as an oracle; suppressing
        around those calls keeps a verified run's captured timeline
        span-identical to an unverified one.  Spans already open keep
        recording — only spans *started* inside the block are dropped.
        """
        was_enabled = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = was_enabled

    @contextmanager
    def capture(self) -> Iterator["Tracer"]:
        """Enable for a ``with`` block, disabling (buffer kept) on exit."""
        was_enabled = self.enabled
        self.enable()
        try:
            yield self
        finally:
            if not was_enabled:
                self.disable()

    # -- the shard protocol --------------------------------------------------------
    def clock_epoch(self) -> float:
        """This process's wall-clock anchor: ``time.time() - perf_counter()``.

        Captured once per process so every span batch a worker ships uses
        the same offset — which is what keeps per-lane timestamps monotonic
        after the coordinator merges shard buffers.
        """
        if self._epoch is None:
            self._epoch = time.time() - time.perf_counter()
        return self._epoch

    def drain(self) -> List[Dict[str, object]]:
        """Detach and return the finished-span buffer (worker-side shipping)."""
        spans, self._spans = self._spans, []
        return spans

    def absorb_shard(self, spans: Sequence[Mapping[str, object]], lane: str,
                     epoch: Optional[float] = None) -> None:
        """Merge a worker's drained span buffer into this tracer's buffer.

        ``lane`` names the timeline lane (``worker-<pid>``); ``epoch`` is the
        worker's :meth:`clock_epoch`, used to rebase its process-local
        timestamps onto this process's clock so one merged timeline stays
        coherent.  The same-lane relative order is preserved exactly.
        """
        if not self.enabled or not spans:
            return
        offset = 0.0
        if epoch is not None:
            offset = epoch - self.clock_epoch()
        for span in spans:
            record = dict(span)
            record["ts"] = float(record.get("ts", 0.0)) + offset
            record["lane"] = lane
            self._spans.append(record)

    # -- views -------------------------------------------------------------------
    def spans(self) -> List[Dict[str, object]]:
        """A snapshot of the finished-span buffer (records are shared)."""
        return list(self._spans)

    def timeline(self):
        """The captured buffer as a :class:`~repro.obs.timeline.Timeline`."""
        from repro.obs.timeline import Timeline

        return Timeline(self._spans)

    def __repr__(self) -> str:
        return "<Tracer enabled={} spans={}>".format(
            self.enabled, len(self._spans))


#: the process-wide tracer every instrumentation site imports.
TRACER = Tracer()
