"""Interval (range) analysis.

The less-than analysis of the paper consumes a range analysis "in the style
of Cousot" (the authors use Rodrigues et al.'s LLVM implementation) for one
purpose: classifying additions.  Given ``x1 = x2 + x3`` it must know whether
``x3`` (or ``x2``) is strictly positive, strictly negative, or neither, so
that the instruction can be treated as an addition, a subtraction, or ignored
(Section 3.2, "The Support of Range Analysis on Integer Intervals").

This package provides a self-contained implementation: an interval domain
with widening/narrowing and the analysis driver, which tracks integer values
only.  One reverse-postorder walk over the blocks finalizes every value
outside loops; Tarjan's algorithm and widening/narrowing run only on the
residue that waits on a φ back edge, a weak topological ordering in the
sense of Bourdoncle ("Efficient chaotic iteration strategies with
widenings", 1993).
"""

from repro.rangeanalysis.interval import Interval, NEG_INF, POS_INF
from repro.rangeanalysis.analysis import RangeAnalysis, RangeStatistics

__all__ = [
    "Interval",
    "NEG_INF",
    "POS_INF",
    "RangeAnalysis",
    "RangeStatistics",
]
