"""Interval (range) analysis.

The less-than analysis of the paper consumes a range analysis "in the style
of Cousot" (the authors use Rodrigues et al.'s LLVM implementation) for one
purpose: classifying additions.  Given ``x1 = x2 + x3`` it must know whether
``x3`` (or ``x2``) is strictly positive, strictly negative, or neither, so
that the instruction can be treated as an addition, a subtraction, or ignored
(Section 3.2, "The Support of Range Analysis on Integer Intervals").

This package provides a self-contained implementation: an interval domain
with widening/narrowing, a dependency graph over SSA values with strongly
connected component ordering, and the analysis driver.
"""

from repro.rangeanalysis.interval import Interval, NEG_INF, POS_INF
from repro.rangeanalysis.graph import DependencyGraph, strongly_connected_components
from repro.rangeanalysis.analysis import (
    RangeAnalysis,
    RangeAnalysisPass,
    RangeStatistics,
)

__all__ = [
    "Interval",
    "NEG_INF",
    "POS_INF",
    "DependencyGraph",
    "strongly_connected_components",
    "RangeAnalysis",
    "RangeAnalysisPass",
    "RangeStatistics",
]
