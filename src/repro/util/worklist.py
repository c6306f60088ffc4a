"""Shared worklist machinery for the fixed-point solvers.

Both sparse solvers (the range analysis' def-use solver and the less-than
constraint solver) follow the usual chaotic-iteration scheme: pop an item,
re-evaluate its transfer function, and push its dependents when the abstract
state changed.  Pushing an item that is already pending is wasteful, so every
worklist here tracks membership and counts the pushes it absorbed
(*coalesced* pushes) next to the pops it served.

:class:`Worklist` implements the scheme: the FIFO worklist with duplicate
suppression (the less-than solver's variable queue, its constraint-keyed
reference strategy and the Andersen solver).  The range solver replays
Gauss–Seidel sweeps over member marks instead (see
:meth:`repro.rangeanalysis.analysis.RangeAnalysis._sweep`).

:class:`SolverInfo` is the cross-solver counter struct (transfer-function
evaluations, widenings, SCC counts, worklist pops).  It merges losslessly,
which is how counters of several analyses add up into one report.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Deque,
    Dict,
    Generic,
    Hashable,
    Iterable,
    Mapping,
    Optional,
    Set,
    TypeVar,
)

T = TypeVar("T", bound=Hashable)

_COUNTERS = ("evaluations", "widenings", "narrowings", "sccs", "cyclic_sccs",
             "pops")


class SolverInfo:
    """Counters describing fixed-point solver work, mergeable across analyses.

    ``evaluations`` counts transfer-function applications (the quantity the
    sparse solvers exist to reduce), ``sccs``/``cyclic_sccs`` the dependence
    components the schedule visited, and ``pops`` the worklist pops.
    """

    __slots__ = _COUNTERS

    def __init__(self, evaluations: int = 0, widenings: int = 0,
                 narrowings: int = 0, sccs: int = 0, cyclic_sccs: int = 0,
                 pops: int = 0) -> None:
        self.evaluations = evaluations
        self.widenings = widenings
        self.narrowings = narrowings
        self.sccs = sccs
        self.cyclic_sccs = cyclic_sccs
        self.pops = pops

    def merge(self, other: "SolverInfo") -> "SolverInfo":
        """Lossless sum of two counter sets (commutative)."""
        return SolverInfo(**{name: getattr(self, name) + getattr(other, name)
                             for name in _COUNTERS})

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in _COUNTERS}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SolverInfo":
        return cls(**{name: int(data.get(name, 0)) for name in _COUNTERS})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SolverInfo):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        return "<SolverInfo evaluations={} widenings={} sccs={} pops={}>".format(
            self.evaluations, self.widenings, self.sccs, self.pops)


class Worklist(Generic[T]):
    """FIFO worklist with duplicate suppression and pop accounting.

    A push of an item that is already pending coalesces into the pending
    entry and is counted (``coalesced``).
    """

    def __init__(self, items: Optional[Iterable[T]] = None) -> None:
        self._queue: Deque[T] = deque()
        self._pending: Set[T] = set()
        self.pops = 0
        self.pushes = 0
        self.coalesced = 0
        if items is not None:
            for item in items:
                self.push(item)

    def push(self, item: T) -> bool:
        """Add ``item`` unless it is already pending.  Return True if added."""
        if item in self._pending:
            self.coalesced += 1
            return False
        self._pending.add(item)
        self._queue.append(item)
        self.pushes += 1
        return True

    def extend(self, items: Iterable[T]) -> int:
        """Push every item; return how many were actually added."""
        return sum(1 for item in items if self.push(item))

    def pop(self) -> T:
        item = self._queue.popleft()
        self._pending.discard(item)
        self.pops += 1
        return item

    def __bool__(self) -> bool:
        return bool(self._queue)

    def __len__(self) -> int:
        return len(self._queue)

    def __contains__(self, item: T) -> bool:
        return item in self._pending
