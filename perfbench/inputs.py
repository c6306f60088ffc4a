"""Seeded inputs of the four workloads.

Every input is a pure function of the benchmark's ``--seed``.  The default
seed (:data:`DEFAULT_SEED`) reproduces the programs of
``python -m repro eval --synth spec`` and ``--synth testsuite`` exactly:
SPEC-like profile seeds are offset by ``seed - DEFAULT_SEED`` and the
test-suite base seed *is* the benchmark seed (the CLI's default synthetic
seed is 7).
"""

from __future__ import annotations

import dataclasses
import random
import re
from typing import Iterator, List, Tuple

from repro.synth.spec_profiles import SPEC_PROFILES
from repro.synth.workloads import build_testsuite_sources, compose_source, spec_recipe

#: the CLI's default synthetic seed (``REPRO_SYNTH_SEED``).
DEFAULT_SEED = 7
#: program count of the ``testsuite-w2`` workload.
TESTSUITE_PROGRAMS = 60
#: the SPEC-like profile the ``churn`` workload edits (27 functions).
CHURN_PROFILE = "gcc"

Source = Tuple[str, str]

_FUNCTION_HEADER = re.compile(r"^(?:int|void)\s*\*?\s*(\w+)\s*\(", re.MULTILINE)
_INT_LITERAL = re.compile(r"(?<![\w.])\d+(?![\w.])")


def spec_sources(seed: int) -> List[Source]:
    """The 16 SPEC-like ``(name, source)`` programs for ``seed``."""
    offset = seed - DEFAULT_SEED
    sources = []
    for profile in SPEC_PROFILES.values():
        name, kernels, random_specs = spec_recipe(
            dataclasses.replace(profile, seed=profile.seed + offset))
        sources.append((name, compose_source(name, kernels, random_specs)))
    return sources


def testsuite_sources(seed: int) -> List[Source]:
    """The test-suite-like programs for ``seed``, in growing size order."""
    return build_testsuite_sources(TESTSUITE_PROGRAMS, base_seed=seed)


def churn_base() -> Source:
    """The program the ``churn`` workload edits: the default gcc-like SPEC
    program.  It is the same for every seed; the seed picks the edits."""
    name, kernels, random_specs = spec_recipe(SPEC_PROFILES[CHURN_PROFILE])
    return name, compose_source(name, kernels, random_specs)


def function_bodies(source: str) -> List[Tuple[str, int, int]]:
    """``(name, start, end)`` of every function body (the text between and
    including its outermost braces) in a composed mini-C translation unit."""
    bodies = []
    for header in _FUNCTION_HEADER.finditer(source):
        start = source.index("{", header.end())
        depth = 0
        for index in range(start, len(source)):
            if source[index] == "{":
                depth += 1
            elif source[index] == "}":
                depth -= 1
                if depth == 0:
                    bodies.append((header.group(1), start, index + 1))
                    break
    return bodies


def _literals(source: str):
    """``{function name: [literal match, ...]}`` for functions holding one."""
    found = {}
    for name, start, end in function_bodies(source):
        literals = list(_INT_LITERAL.finditer(source, start, end))
        if literals:
            found[name] = literals
    return found


def edit_round_size(source: str) -> int:
    """Edits per round: the number of functions that hold a literal."""
    return len(_literals(source))


def churn_edits(seed: int, source: str) -> Iterator[Tuple[str, str]]:
    """The endless seeded edit sequence on ``source``.

    Each edit adds 1 to one integer literal inside one function body and
    applies on top of the previous edit; it yields ``(edited source, edited
    function name)``.  Only functions whose body holds a literal are edited,
    so every edit is valid mini-C and changes exactly one function.  Edits
    come in rounds that touch every such function once, in a seeded order,
    so any whole number of rounds has the same mix of cheap and expensive
    functions whatever the seed.
    """
    rng = random.Random(seed)
    while True:
        names = sorted(_literals(source))
        rng.shuffle(names)
        for name in names:
            literal = rng.choice(_literals(source)[name])
            source = "{}{}{}".format(source[:literal.start()],
                                     int(literal.group()) + 1,
                                     source[literal.end():])
            yield source, name
