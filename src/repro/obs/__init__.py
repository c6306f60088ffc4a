"""repro.obs — the observability plane: tracing and timelines.

Importable from every layer (it depends only on the stdlib).  The usual
entry point is the process-wide :data:`TRACER`::

    from repro.obs import TRACER

    with TRACER.span("essa.transform", fn=function.name):
        ...

See :mod:`repro.obs.tracer` for the span/timer semantics,
:mod:`repro.obs.timeline` for merged shard timelines, and
:mod:`repro.obs.chrome` for the ``--trace`` Chrome trace-event export.
"""

from repro.obs.chrome import (to_chrome_trace, validate_chrome_trace,
                              write_chrome_trace)
from repro.obs.timeline import MAIN_LANE, Timeline
from repro.obs.tracer import NOOP_SPAN, Span, Timer, Tracer, TRACER

__all__ = [
    "TRACER",
    "Tracer",
    "Span",
    "Timer",
    "NOOP_SPAN",
    "Timeline",
    "MAIN_LANE",
    "to_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
]
