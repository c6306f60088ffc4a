"""Benchmark program construction.

The evaluation needs two collections of programs:

* a "test-suite-like" collection of increasing size (the 100 largest
  benchmarks of the LLVM test suite in Figure 8, and the 50 largest programs
  of Figure 11), and
* a "SPEC-like" collection of sixteen named programs whose pointer-arithmetic
  versus allocation-site mix follows :mod:`repro.synth.spec_profiles`
  (Figures 9 and 10).

Programs are assembled by composing kernel sources (with per-instance
renaming so a module may contain several copies of the same kernel) and
Csmith-like random functions into a single mini-C translation unit, then
compiling it with the frontend.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.api.config import DEFAULT_SYNTH_SEED
from repro.frontend import compile_source
from repro.ir.module import Module
from repro.synth.csmith import CsmithConfig, RandomProgramGenerator
from repro.synth.kernels import KERNEL_SOURCES
from repro.synth.spec_profiles import (
    ALLOC_KERNEL_POOL,
    POINTER_KERNEL_POOL,
    SPEC_PROFILES,
    SpecProfile,
)

#: function names defined by each kernel (needed for per-instance renaming).
_KERNEL_FUNCTIONS: Dict[str, Tuple[str, ...]] = {
    name: tuple(re.findall(r"(?:int|void)\s*\*?\s*(\w+)\s*\(", source))
    for name, source in KERNEL_SOURCES.items()
}


@dataclass
class WorkloadProgram:
    """A named benchmark program: its source text and its compiled module."""

    name: str
    source: str
    module: Module = field(repr=False)

    @property
    def instruction_count(self) -> int:
        return self.module.instruction_count()


def _rename_functions(source: str, kernel: str, suffix: str) -> str:
    """Give every function defined by ``kernel`` a unique, per-instance name."""
    renamed = source
    for function_name in _KERNEL_FUNCTIONS[kernel]:
        renamed = re.sub(r"\b{}\b".format(re.escape(function_name)),
                         "{}_{}".format(function_name, suffix), renamed)
    return renamed


def _random_function_source(seed: int, statements: int, pointer_depth: int, suffix: str,
                            parameter_count: int = 0) -> str:
    """One Csmith-like function (without its ``main``) renamed with ``suffix``."""
    # Parameterised functions model code that mostly works on incoming
    # pointers (SPEC-like): few local arrays, few straight-line constant-index
    # statements, and one long streaming derived-pointer chain per parameter
    # (the lbm-style access pattern that only LT disambiguates).
    if parameter_count > 0:
        config = CsmithConfig(seed=seed, pointer_depth=pointer_depth,
                              statement_count=max(4, statements // 4), loop_count=2,
                              parameter_count=parameter_count, array_count=1,
                              chain_loops=parameter_count, chain_length=8)
    else:
        config = CsmithConfig(seed=seed, pointer_depth=pointer_depth,
                              statement_count=statements, loop_count=2)
    generator = RandomProgramGenerator(config)
    source = generator.generate_source()
    # Drop the generated main (each composed program gets a single main at the
    # end) and rename the work function.
    source = source.split("int main()")[0]
    return source.replace("work(", "work_{}(".format(suffix))


def compose_source(name: str, kernel_instances: Sequence[str],
                   random_specs: Sequence[Sequence[int]] = ()) -> str:
    """Compose one benchmark program's *source text* without compiling it.

    This is the coordinator-side half of :func:`compose_program`: the
    cross-process execution engine ships source text to worker processes
    (compiled IR does not pickle), so benchmark drivers that fan programs
    out only need the text.  ``name`` participates for interface symmetry
    and future per-program markers; composition itself is a pure function of
    the kernel names and random specs.
    """
    del name  # composition does not embed the name today
    pieces: List[str] = []
    for index, kernel in enumerate(kernel_instances):
        pieces.append(_rename_functions(KERNEL_SOURCES[kernel], kernel, "k{}".format(index)))
    for index, spec in enumerate(random_specs):
        seed, statements, pointer_depth = spec[0], spec[1], spec[2]
        parameter_count = spec[3] if len(spec) > 3 else 0
        pieces.append(_random_function_source(seed, statements, pointer_depth,
                                              "r{}".format(index), parameter_count))
    pieces.append("int main() { return 0; }\n")
    return "\n".join(pieces)


def compose_program(name: str, kernel_instances: Sequence[str],
                    random_specs: Sequence[Sequence[int]] = ()) -> WorkloadProgram:
    """Build one benchmark module from kernel names and random-function specs.

    ``random_specs`` is a sequence of ``(seed, statements, pointer_depth)`` or
    ``(seed, statements, pointer_depth, parameter_count)`` tuples.  The
    composed program also receives a ``main`` that does nothing (benchmarks
    only analyse the code statically).
    """
    source = compose_source(name, kernel_instances, random_specs)
    module = compile_source(source, module_name=name)
    return WorkloadProgram(name=name, source=source, module=module)


# ---------------------------------------------------------------------------
# The test-suite-like collection (Figures 8 and 11)
# ---------------------------------------------------------------------------

def testsuite_recipes(count: int = 100, base_seed: int = DEFAULT_SYNTH_SEED) \
        -> List[Tuple[str, List[str], List[Tuple[int, int, int, int]]]]:
    """The ``(name, kernels, random_specs)`` recipe of every collection program.

    All RNG draws happen here, in one place, so the compiled
    (:func:`build_testsuite_programs`) and source-only
    (:func:`build_testsuite_sources`) views of the collection are guaranteed
    to describe the same programs.
    """
    rng = random.Random(base_seed)
    pools = list(POINTER_KERNEL_POOL) + list(ALLOC_KERNEL_POOL)
    recipes: List[Tuple[str, List[str], List[Tuple[int, int, int, int]]]] = []
    for index in range(count):
        kernel_count = 1 + index // 8
        kernels = [rng.choice(pools) for _ in range(kernel_count)]
        statements = 10 + index
        # Alternate between closed (local-array) and parameterised random
        # functions so the collection mixes allocation-heavy code with
        # pointer-argument-heavy code, like a real benchmark suite does.
        parameters = 3 if index % 2 == 1 else 0
        random_specs = [(base_seed * 1000 + index, statements, 2, parameters)]
        recipes.append(("testsuite_{:03d}".format(index), kernels, random_specs))
    return recipes


def build_testsuite_programs(count: int = 100,
                             base_seed: int = DEFAULT_SYNTH_SEED) -> List[WorkloadProgram]:
    """``count`` benchmark programs of (roughly) increasing size.

    Program ``i`` contains ``1 + i // 8`` kernel instances plus one random
    function whose statement count grows with ``i``, which yields the size
    spread the paper's Figure 8 plots on a log scale.
    """
    return [compose_program(name, kernels, random_specs)
            for name, kernels, random_specs in testsuite_recipes(count, base_seed)]


def build_testsuite_sources(count: int = 100,
                            base_seed: int = DEFAULT_SYNTH_SEED) -> List[Tuple[str, str]]:
    """``(name, source)`` pairs of the collection, without compiling.

    The execution engine's coordinator hands these straight to worker
    processes; whichever process runs a unit pays its (one) compilation.
    """
    return [(name, compose_source(name, kernels, random_specs))
            for name, kernels, random_specs in testsuite_recipes(count, base_seed)]


# ---------------------------------------------------------------------------
# The SPEC-like collection (Figures 9 and 10)
# ---------------------------------------------------------------------------

def spec_recipe(profile: SpecProfile) \
        -> Tuple[str, List[str], List[Tuple[int, int, int, int]]]:
    """The ``(name, kernels, random_specs)`` recipe of one SPEC-like program."""
    rng = random.Random(profile.seed)
    kernels: List[str] = []
    for _ in range(profile.pointer_kernels):
        kernels.append(rng.choice(POINTER_KERNEL_POOL))
    for _ in range(profile.alloc_kernels):
        kernels.append(rng.choice(ALLOC_KERNEL_POOL))
    random_specs = [
        (profile.seed * 100 + index, profile.random_statements, 2, profile.random_parameters)
        for index in range(profile.random_programs)
    ]
    return "spec_" + profile.name, kernels, random_specs


def build_spec_module(profile: SpecProfile) -> WorkloadProgram:
    """Build the synthetic program standing in for one SPEC benchmark."""
    return compose_program(*spec_recipe(profile))


def _selected_profiles(names: Optional[Iterable[str]]) -> List[SpecProfile]:
    selected = list(names) if names is not None else list(SPEC_PROFILES)
    profiles: List[SpecProfile] = []
    for name in selected:
        if name not in SPEC_PROFILES:
            raise KeyError("unknown SPEC profile {!r}".format(name))
        profiles.append(SPEC_PROFILES[name])
    return profiles


def spec_benchmarks(names: Optional[Iterable[str]] = None) -> List[WorkloadProgram]:
    """Build the sixteen SPEC-like benchmark programs (or a subset)."""
    return [build_spec_module(profile) for profile in _selected_profiles(names)]


def spec_sources(names: Optional[Iterable[str]] = None) -> List[Tuple[str, str]]:
    """``(name, source)`` pairs of the SPEC-like programs, without compiling."""
    return [(recipe[0], compose_source(*recipe))
            for recipe in (spec_recipe(profile)
                           for profile in _selected_profiles(names))]
