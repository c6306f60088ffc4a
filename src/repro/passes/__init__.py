"""The one way the pipeline manages its analyses.

The original artifact chains LLVM passes (``RangeAnalysis``, ``vSSA``,
``sraa``).  Here that chain has a fixed order, so there is no pass
scheduler: :class:`FunctionAnalysisCache` runs each stage on demand —
ranges, e-SSA conversion, constraint generation and the worklist solve —
memoizes the results per function and per module, and drops them when the
IR changes.
"""

from repro.passes.analysis_cache import (
    CacheStatistics,
    FunctionAnalysisCache,
    RefreshResult,
)

__all__ = [
    "CacheStatistics",
    "FunctionAnalysisCache",
    "RefreshResult",
]
