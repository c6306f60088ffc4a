"""Pin the intervals of the synthetic corpora, and the shape of the solve.

The range analysis feeds one consumer, the classification of additions
(Section 3.2 of the paper), so a faster solve must leave every integer
interval bit-identical.  The digest covers every non-pointer value of the
e-SSA form of the 16 SPEC-like programs (seed 7) and the 60 test-suite
programs, keyed by ``(module, function, value)``.  It changes only with an
intentional change to the analysis, and that change is recorded in
CHANGES.md together with the new digest.
"""

import hashlib
import json

from repro.essa import convert_to_essa
from repro.frontend import compile_source
from repro.ir.instructions import BinaryOp, Copy, Load, Phi
from repro.ir.values import Argument
from repro.rangeanalysis import Interval, RangeAnalysis
from repro.synth import build_testsuite_sources, spec_sources

RANGE_DIGEST = "aa0c4ac059c7f5fd217898822cca17f52009d1247bd7962a7b740b18d2b2b647"
RANGE_VALUES = 14660

#: ``q - 1`` shrinks the pointer ``q``, so e-SSA splits it with a pointer copy.
POINTER_SUBTRACTION = ("int f(int* v, int n) {\n"
                       "  int* q = v + n;\n"
                       "  int* r = q - 1;\n"
                       "  return *r + *q;\n"
                       "}\n")


def _corpus():
    corpus = list(spec_sources()) + list(build_testsuite_sources(60))
    assert len(corpus) == 76
    return corpus


def test_integer_intervals_of_spec_and_testsuite_corpora_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for name, text in _corpus():
        module = compile_source(text, module_name=name)
        for function in module.defined_functions():
            ranges = convert_to_essa(function).ranges
            rows = [[name, function.name, value.name,
                     repr(ranges.range_of(value))]
                    for value in function.values() if not value.is_pointer()]
            count += len(rows)
            digest.update(json.dumps(rows).encode("utf-8"))
    assert count == RANGE_VALUES
    assert digest.hexdigest() == RANGE_DIGEST


def test_no_pointer_value_gets_an_interval():
    corpus = _corpus()[:16] + [("ptrsub", POINTER_SUBTRACTION)]
    for name, text in corpus:
        module = compile_source(text, module_name=name)
        for function in module.defined_functions():
            info = convert_to_essa(function)
            assert not [value for value in info.ranges.ranges
                        if value.is_pointer()]
    # The pointer split copy exists, and reads as top.
    (copy,) = info.subtraction_copies
    assert copy.is_pointer()
    assert info.ranges.range_of(copy) == Interval.top()


def _tracked(function):
    return [value for value in function.values()
            if isinstance(value, (Argument, BinaryOp, Phi, Copy, Load))
            and not value.is_pointer()]


def test_loop_free_function_evaluates_each_tracked_value_once():
    source = ("int f(int* v, int a, int b) {\n"
              "  int s = a + b;\n"
              "  int t = 0;\n"
              "  if (s < 10) { t = s * 2; } else { t = v[s - 1]; }\n"
              "  v[t] = s;\n"
              "  return t - a;\n"
              "}\n")
    module = compile_source(source, module_name="straight")
    function = module.get_function("f")
    convert_to_essa(function)
    analysis = RangeAnalysis(function)
    tracked = _tracked(function)
    assert any(isinstance(value, Phi) for value in tracked)
    assert set(analysis.ranges) == set(tracked)
    statistics = analysis.statistics
    assert statistics.evaluations == len(tracked)
    assert statistics.components == len(tracked)
    assert statistics.cyclic_components == 0
    assert statistics.widenings == statistics.narrowings == 0
