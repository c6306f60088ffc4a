"""Shared utilities used across the reproduction.

This package intentionally has no dependency on the IR or the analyses, so
that every other subsystem may rely on it freely.
"""

from repro.util.unionfind import UnionFind
from repro.util.worklist import (
    SolverInfo,
    Worklist,
)
from repro.util.stats import (
    coefficient_of_determination,
    linear_regression,
    mean,
    median,
    summarize,
)

__all__ = [
    "SolverInfo",
    "UnionFind",
    "Worklist",
    "coefficient_of_determination",
    "linear_regression",
    "mean",
    "median",
    "summarize",
]
