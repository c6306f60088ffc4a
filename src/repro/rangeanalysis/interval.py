"""The interval abstract domain.

An :class:`Interval` is a pair ``[lower, upper]`` of extended integers
(integers extended with minus and plus infinity).  The empty interval is the
bottom element; ``[-inf, +inf]`` is the top element.  The domain supports the
abstract counterparts of the arithmetic the IR performs plus the lattice
operations (join, meet, widening, narrowing) that the fixed-point solver
needs.

Intervals are immutable and hashable, and the common ones are **interned**:
:meth:`Interval.of` (which every constructor and every operation routes
through) answers from a canonical-object cache, so the fixed-point solver's
hot ``join``/``widen``/``refine_*`` paths return existing objects instead of
allocating.  The lattice operations additionally return ``self``/``other``
directly whenever the result equals an operand — in a stable solve (the
common case after the first few iterations) no object is created at all.
"""

from __future__ import annotations

from typing import Dict, Tuple, Union

# Extended integers: plain Python ints plus the two infinities, represented
# with floats so that comparisons work out of the box.
NEG_INF = float("-inf")
POS_INF = float("inf")

Extended = Union[int, float]


def _add(a: Extended, b: Extended, opposite: Extended = NEG_INF) -> Extended:
    """Extended addition; infinity absorbs finite operands.

    ``(+inf) + (-inf)`` has no meaningful value, so the convention is made
    explicit: ``opposite`` is returned, independent of operand order.  The
    caller passes the conservative direction for the bound it is computing
    (``NEG_INF`` for lower bounds, ``POS_INF`` for upper bounds), so the
    degenerate sum always widens the interval rather than flipping a bound.
    """
    a_infinite = a in (NEG_INF, POS_INF)
    b_infinite = b in (NEG_INF, POS_INF)
    if a_infinite and b_infinite and a != b:
        return opposite
    if a_infinite:
        return a
    if b_infinite:
        return b
    return a + b


def _div_trunc(a: int, b: int) -> int:
    """Exact C-style (truncating) integer division, without float round-off."""
    quotient = a // b
    if quotient < 0 and quotient * b != a:
        quotient += 1
    return quotient


def _mul(a: Extended, b: Extended) -> Extended:
    """Extended multiplication with 0 * inf = 0 (the usual interval convention)."""
    if a == 0 or b == 0:
        return 0
    if a in (NEG_INF, POS_INF) or b in (NEG_INF, POS_INF):
        positive = (a > 0) == (b > 0)
        return POS_INF if positive else NEG_INF
    return a * b


class Interval:
    """A closed interval of extended integers, or the empty (bottom) interval."""

    __slots__ = ("lower", "upper", "_empty")

    #: canonical-object cache of ``(lower, upper) -> Interval``; bounded so a
    #: pathological workload cannot grow it without limit.  Shared process-wide
    #: (intervals are immutable value objects).
    _interned: Dict[Tuple[Extended, Extended], "Interval"] = {}
    _INTERN_CAP = 1 << 16
    #: lifetime probe counters of :meth:`of` (hit = answered from the cache);
    #: surfaced through ``Session.metrics()`` / ``python -m repro stats`` so a
    #: long-lived session can watch the cache instead of guessing.
    _intern_hits = 0
    _intern_misses = 0

    def __init__(self, lower: Extended = NEG_INF, upper: Extended = POS_INF,
                 empty: bool = False) -> None:
        if not empty and lower > upper:
            raise ValueError("interval lower bound {} exceeds upper bound {}".format(lower, upper))
        self._empty = empty
        self.lower = lower if not empty else POS_INF
        self.upper = upper if not empty else NEG_INF

    # -- constructors ---------------------------------------------------------
    @classmethod
    def of(cls, lower: Extended, upper: Extended) -> "Interval":
        """The canonical (interned) interval ``[lower, upper]``.

        Equal bounds always yield the *same* object, so repeated lattice
        operations in the fixed-point solver stop allocating and identity
        checks (``a is b``) become meaningful for cache-friendliness.  The
        cache is capacity-bounded; beyond the cap, fresh (still equal, just
        not canonical) objects are handed out.
        """
        key = (lower, upper)
        cached = cls._interned.get(key)
        if cached is not None:
            cls._intern_hits += 1
            return cached
        cls._intern_misses += 1
        interval = cls(lower, upper)
        if len(cls._interned) < cls._INTERN_CAP:
            cls._interned[key] = interval
        return interval

    @classmethod
    def intern_info(cls) -> Dict[str, Union[int, float]]:
        """Size, capacity and lifetime hit/miss counters of the intern cache."""
        hits = cls._intern_hits
        misses = cls._intern_misses
        probes = hits + misses
        return {
            "size": len(cls._interned),
            "capacity": cls._INTERN_CAP,
            "hits": hits,
            "misses": misses,
            "hit_rate": (hits / probes) if probes else 0.0,
        }

    @classmethod
    def clear_interned(cls) -> int:
        """Drop the cached intervals (long-lived services call this between
        workloads); returns how many entries were evicted.

        The canonical singletons survive: ``top()`` stays registered so
        identity-based fast paths keep returning the one ``_TOP`` object,
        and the probe counters are reset alongside the entries.
        """
        evicted = len(cls._interned)
        cls._interned.clear()
        cls._interned[(NEG_INF, POS_INF)] = _TOP
        evicted -= 1
        cls._intern_hits = 0
        cls._intern_misses = 0
        return evicted

    @staticmethod
    def top() -> "Interval":
        return _TOP

    @staticmethod
    def bottom() -> "Interval":
        return _BOTTOM

    @staticmethod
    def constant(value: int) -> "Interval":
        return Interval.of(value, value)

    @staticmethod
    def at_least(value: Extended) -> "Interval":
        return Interval.of(value, POS_INF)

    @staticmethod
    def at_most(value: Extended) -> "Interval":
        return Interval.of(NEG_INF, value)

    # -- predicates --------------------------------------------------------------
    def is_bottom(self) -> bool:
        return self._empty

    def is_top(self) -> bool:
        return not self._empty and self.lower == NEG_INF and self.upper == POS_INF

    def is_constant(self) -> bool:
        return not self._empty and self.lower == self.upper

    def is_strictly_positive(self) -> bool:
        return not self._empty and self.lower > 0

    def is_strictly_negative(self) -> bool:
        return not self._empty and self.upper < 0

    def is_non_negative(self) -> bool:
        return not self._empty and self.lower >= 0

    def is_non_positive(self) -> bool:
        return not self._empty and self.upper <= 0

    def contains(self, value: int) -> bool:
        return not self._empty and self.lower <= value <= self.upper

    def intersects(self, other: "Interval") -> bool:
        if self._empty or other._empty:
            return False
        return self.lower <= other.upper and other.lower <= self.upper

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        if self._empty or other._empty:
            return self._empty and other._empty
        return self.lower == other.lower and self.upper == other.upper

    def __hash__(self) -> int:
        return hash((self._empty, self.lower, self.upper))

    def __repr__(self) -> str:
        if self._empty:
            return "Interval(bottom)"
        return "Interval[{}, {}]".format(self.lower, self.upper)

    # -- lattice operations ---------------------------------------------------------
    def join(self, other: "Interval") -> "Interval":
        """Least upper bound (interval hull)."""
        if self._empty:
            return other
        if other._empty or other is self:
            return self
        lower = self.lower if self.lower <= other.lower else other.lower
        upper = self.upper if self.upper >= other.upper else other.upper
        if lower == self.lower and upper == self.upper:
            return self
        if lower == other.lower and upper == other.upper:
            return other
        return Interval.of(lower, upper)

    def meet(self, other: "Interval") -> "Interval":
        """Greatest lower bound (intersection)."""
        if self._empty or other._empty:
            return _BOTTOM
        lower = self.lower if self.lower >= other.lower else other.lower
        upper = self.upper if self.upper <= other.upper else other.upper
        if lower > upper:
            return _BOTTOM
        if lower == self.lower and upper == self.upper:
            return self
        if lower == other.lower and upper == other.upper:
            return other
        return Interval.of(lower, upper)

    def widen(self, other: "Interval") -> "Interval":
        """Standard interval widening: unstable bounds jump to infinity."""
        if self._empty:
            return other
        if other._empty or other is self:
            return self
        lower = self.lower if other.lower >= self.lower else NEG_INF
        upper = self.upper if other.upper <= self.upper else POS_INF
        if lower == self.lower and upper == self.upper:
            return self
        return Interval.of(lower, upper)

    def narrow(self, other: "Interval") -> "Interval":
        """Standard interval narrowing: infinities are refined, finite bounds kept."""
        if self._empty or other._empty:
            return _BOTTOM
        lower = other.lower if self.lower == NEG_INF else self.lower
        upper = other.upper if self.upper == POS_INF else self.upper
        if lower > upper:
            return _BOTTOM
        if lower == self.lower and upper == self.upper:
            return self
        return Interval.of(lower, upper)

    def includes(self, other: "Interval") -> bool:
        """True if ``other`` is a subset of ``self``."""
        if other._empty:
            return True
        if self._empty:
            return False
        return self.lower <= other.lower and other.upper <= self.upper

    # -- abstract arithmetic --------------------------------------------------------
    def add(self, other: "Interval") -> "Interval":
        if self._empty or other._empty:
            return _BOTTOM
        return Interval.of(_add(self.lower, other.lower, NEG_INF),
                           _add(self.upper, other.upper, POS_INF))

    def neg(self) -> "Interval":
        if self._empty:
            return _BOTTOM
        return Interval.of(-self.upper, -self.lower)

    def sub(self, other: "Interval") -> "Interval":
        return self.add(other.neg())

    def mul(self, other: "Interval") -> "Interval":
        if self._empty or other._empty:
            return _BOTTOM
        products = [
            _mul(self.lower, other.lower),
            _mul(self.lower, other.upper),
            _mul(self.upper, other.lower),
            _mul(self.upper, other.upper),
        ]
        return Interval.of(min(products), max(products))

    def div(self, other: "Interval") -> "Interval":
        """Conservative division: exact only when the divisor is a non-zero constant."""
        if self._empty or other._empty:
            return _BOTTOM
        if other.is_constant() and other.lower not in (0, NEG_INF, POS_INF):
            divisor = other.lower
            candidates = []
            for bound in (self.lower, self.upper):
                if bound in (NEG_INF, POS_INF):
                    candidates.append(bound if divisor > 0 else -bound)
                else:
                    candidates.append(_div_trunc(int(bound), divisor))
            return Interval.of(min(candidates), max(candidates))
        return _TOP

    def rem(self, other: "Interval") -> "Interval":
        """Conservative remainder: bounded by the divisor magnitude when known."""
        if self._empty or other._empty:
            return _BOTTOM
        if other.is_constant() and other.lower not in (0, NEG_INF, POS_INF):
            magnitude = abs(other.lower) - 1
            return Interval.of(-magnitude, magnitude)
        return _TOP

    # -- comparison-driven refinement --------------------------------------------------
    def refine_less_than(self, other: "Interval") -> "Interval":
        """The part of ``self`` consistent with ``self < other``."""
        if self._empty or other._empty:
            return Interval.bottom()
        bound = other.upper if other.upper in (NEG_INF, POS_INF) else other.upper - 1
        return self.meet(Interval.at_most(bound))

    def refine_less_equal(self, other: "Interval") -> "Interval":
        if self._empty or other._empty:
            return Interval.bottom()
        return self.meet(Interval.at_most(other.upper))

    def refine_greater_than(self, other: "Interval") -> "Interval":
        if self._empty or other._empty:
            return Interval.bottom()
        bound = other.lower if other.lower in (NEG_INF, POS_INF) else other.lower + 1
        return self.meet(Interval.at_least(bound))

    def refine_greater_equal(self, other: "Interval") -> "Interval":
        if self._empty or other._empty:
            return Interval.bottom()
        return self.meet(Interval.at_least(other.lower))

    def refine_equal(self, other: "Interval") -> "Interval":
        return self.meet(other)


#: the canonical top/bottom instances that every constructor hands out.
_BOTTOM = Interval(empty=True)
_TOP = Interval(NEG_INF, POS_INF)
Interval._interned[(NEG_INF, POS_INF)] = _TOP

