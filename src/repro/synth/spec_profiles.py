"""Per-benchmark profiles modelling the SPEC CPU2006 programs of Figure 9.

We cannot ship SPEC, so each benchmark is replaced by a synthetic program
assembled from the kernel library and the random generator.  A profile
controls the *mix* that matters for the experiment:

* ``pointer_kernels`` — number of kernel instances drawn from the
  pointer-arithmetic-heavy pool (two-index loops, pointer walks, stencils):
  the code the strict-inequality analysis (LT) is good at;
* ``alloc_kernels`` — number of instances drawn from the allocation-heavy
  pool (multiple ``malloc`` buffers, distinct local arrays): the code the
  basic analysis (BA) is good at;
* ``random_programs`` / ``random_statements`` — Csmith-like filler that adds
  bulk and a mix of both behaviours.

The absolute query counts will not match the paper (their programs are
orders of magnitude larger), but the *ordering* of the profiles follows the
paper's Figure 9: lbm/milc/bzip2-like programs are dominated by pointer
arithmetic (LT alone competitive with or better than BA), while sjeng,
namd, omnetpp or dealII-like programs are dominated by distinct allocation
sites and call-heavy code (BA far ahead of LT).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class SpecProfile:
    """Synthetic stand-in for one SPEC CPU2006 benchmark."""

    name: str
    pointer_kernels: int
    alloc_kernels: int
    random_programs: int
    random_statements: int
    #: number of ``int*`` parameters of each random filler function; a high
    #: count models pointer-argument-heavy code (where BA is weak), zero
    #: models allocation-heavy code (where BA is strong).
    random_parameters: int
    #: seed offset so every profile gets a distinct but reproducible program.
    seed: int

    @property
    def scale(self) -> int:
        return self.pointer_kernels + self.alloc_kernels + self.random_programs


#: kernels that stress pointer arithmetic (LT's home turf).
POINTER_KERNEL_POOL: Tuple[str, ...] = (
    "ins_sort", "partition", "copy_reverse", "pointer_walk", "reverse_in_place",
    "two_pointer_sum", "stencil3", "prefix_sum", "merge_sorted",
    "sliding_window_max", "memcopy", "vector_add", "dot_product",
    "find_max_index", "binary_search", "matrix_row_sum",
)

#: kernels dominated by distinct allocation sites and calls (BA's home turf).
ALLOC_KERNEL_POOL: Tuple[str, ...] = (
    "alloc_buffers", "queue_simulation", "saxpy_calls", "histogram",
)

#: the sixteen SPEC CPU2006 benchmarks of Figure 9, ordered as in the paper
#: (by total number of queries).  The mixes mirror the paper's findings about
#: which benchmarks are pointer-arithmetic heavy.
SPEC_PROFILES: Dict[str, SpecProfile] = {
    "lbm":        SpecProfile("lbm",        pointer_kernels=6,  alloc_kernels=1,  random_programs=1, random_statements=20, random_parameters=5, seed=101),
    "mcf":        SpecProfile("mcf",        pointer_kernels=4,  alloc_kernels=2,  random_programs=1, random_statements=20, random_parameters=4, seed=102),
    "astar":      SpecProfile("astar",      pointer_kernels=3,  alloc_kernels=4,  random_programs=1, random_statements=25, random_parameters=2, seed=103),
    "libquantum": SpecProfile("libquantum", pointer_kernels=2,  alloc_kernels=5,  random_programs=1, random_statements=25, random_parameters=1, seed=104),
    "sjeng":      SpecProfile("sjeng",      pointer_kernels=1,  alloc_kernels=7,  random_programs=1, random_statements=30, random_parameters=0, seed=105),
    "milc":       SpecProfile("milc",       pointer_kernels=7,  alloc_kernels=2,  random_programs=1, random_statements=30, random_parameters=5, seed=106),
    "soplex":     SpecProfile("soplex",     pointer_kernels=4,  alloc_kernels=4,  random_programs=2, random_statements=30, random_parameters=3, seed=107),
    "bzip2":      SpecProfile("bzip2",      pointer_kernels=8,  alloc_kernels=3,  random_programs=2, random_statements=30, random_parameters=4, seed=108),
    "hmmer":      SpecProfile("hmmer",      pointer_kernels=3,  alloc_kernels=6,  random_programs=2, random_statements=30, random_parameters=2, seed=109),
    "gobmk":      SpecProfile("gobmk",      pointer_kernels=8,  alloc_kernels=6,  random_programs=2, random_statements=35, random_parameters=4, seed=110),
    "namd":       SpecProfile("namd",       pointer_kernels=1,  alloc_kernels=8,  random_programs=2, random_statements=35, random_parameters=0, seed=111),
    "omnetpp":    SpecProfile("omnetpp",    pointer_kernels=1,  alloc_kernels=9,  random_programs=3, random_statements=35, random_parameters=0, seed=112),
    "h264ref":    SpecProfile("h264ref",    pointer_kernels=3,  alloc_kernels=9,  random_programs=3, random_statements=35, random_parameters=1, seed=113),
    "perlbench":  SpecProfile("perlbench",  pointer_kernels=2,  alloc_kernels=10, random_programs=3, random_statements=35, random_parameters=0, seed=114),
    "dealII":     SpecProfile("dealII",     pointer_kernels=3,  alloc_kernels=12, random_programs=3, random_statements=40, random_parameters=0, seed=115),
    "gcc":        SpecProfile("gcc",        pointer_kernels=6,  alloc_kernels=14, random_programs=4, random_statements=40, random_parameters=1, seed=116),
}
