"""Extended SSA (e-SSA / SSI) construction.

The less-than analysis is *sparse*: each variable has a single abstract state
over its whole live range (Definition 3.2 of the paper, quoted from Tavares
et al.).  To make that sound, the live range of a variable must be split at
every program point where new less-than information appears:

1. at its definition (SSA already guarantees a fresh name there);
2. at subtractions ``x1 = x2 - n`` — a parallel copy ``x3 = x2`` is placed
   next to the subtraction so that the fact ``x1 < x3`` has a variable to
   attach to;
3. after conditionals ``(x1 < x2)?`` — σ-copies of both operands are placed
   on the true and the false edge, carrying the branch information.

This package implements that transformation (the ``vSSA`` pass of the
original artifact) for our IR.
"""

from repro.essa.transform import EssaInfo, convert_to_essa

__all__ = ["EssaInfo", "convert_to_essa"]
