"""Pausing Python's automatic cycle collection for one unit of work.

A unit (one engine work unit, one ``Session.update_source`` edit) ends by
releasing its IR (:meth:`repro.ir.module.Module.release`), so reference
counting frees everything it built.  Automatic collections during the unit
would only walk its live IR and free nothing, so the unit runs with them
paused.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def collector_paused() -> Iterator[None]:
    """Disable automatic collection for a ``with`` block, then restore the
    previous state, also when the block raises."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
