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
