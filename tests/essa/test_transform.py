"""Tests for the e-SSA (live-range splitting) transformation."""

from collections import Counter

from repro.api import Session
from repro.essa import convert_to_essa
from repro.frontend import compile_source
from repro.ir import Copy, print_module, verify_function
from repro.ir.interpreter import Interpreter
from repro.passes import FunctionAnalysisCache
from repro.rangeanalysis.analysis import RangeAnalysis
from repro.synth import build_testsuite_sources, spec_sources
from repro.synth.csmith import CsmithConfig, RandomProgramGenerator
from repro.verify.certificate import check_range_certificate
from repro.verify.diagnostics import VerificationReport
from tests.helpers import (
    build_counting_loop_module,
    build_diamond_module,
    build_figure3_module,
    build_straightline_module,
    build_two_index_loop_module,
)
from tests.integration.test_adequacy import check_adequacy


def sigma_copies(function):
    return [i for i in function.instructions() if isinstance(i, Copy) and i.kind == "sigma"]


def split_copies(function):
    return [i for i in function.instructions() if isinstance(i, Copy) and i.kind == "split"]


def test_straightline_code_is_untouched_except_verification():
    module, function = build_straightline_module()
    before = function.instruction_count()
    info = convert_to_essa(function)
    # `d = c - 1` is a subtraction: the live range of `c` is split once.
    assert len(info.subtraction_copies) == 1
    assert len(info.sigma_copies) == 0
    assert function.instruction_count() == before + 1
    verify_function(function)


def test_diamond_gets_sigma_copies_on_both_branches():
    module, function = build_diamond_module()
    info = convert_to_essa(function)
    # Condition a < b involves two variables and two branches: 4 σ-copies.
    assert len(info.sigma_copies) == 4
    verify_function(function)
    then_block = function.block_by_name("then")
    else_block = function.block_by_name("else")
    # The uses of a and b in the branch blocks are renamed to the σ-copies.
    add_then = [i for i in then_block.instructions if i.opcode == "add"][0]
    assert isinstance(add_then.lhs, Copy)
    assert add_then.lhs.sigma_on_true_branch is True
    add_else = [i for i in else_block.instructions if i.opcode == "add"][0]
    assert isinstance(add_else.lhs, Copy)
    assert add_else.lhs.sigma_on_true_branch is False


def test_sigma_annotations_record_condition_and_side():
    module, function = build_diamond_module()
    convert_to_essa(function)
    for copy in sigma_copies(function):
        assert copy.sigma_condition.opcode == "icmp"
        assert copy.sigma_operand_side in ("lhs", "rhs")
        assert isinstance(copy.sigma_on_true_branch, bool)


def test_loop_condition_splits_on_dedicated_blocks():
    module, function = build_counting_loop_module()
    info = convert_to_essa(function)
    # i < n: both are variables, both branches get copies.
    assert len(info.sigma_copies) == 4
    verify_function(function)


def test_two_index_loop_renames_gep_indices():
    module, function = build_two_index_loop_module()
    info = convert_to_essa(function)
    verify_function(function)
    body = function.block_by_name("body")
    geps = [i for i in body.instructions if i.opcode == "gep"]
    # The body is the true branch of (i < j): the gep indices must now be the
    # σ-copies of i and j rather than the φ-nodes themselves.
    assert all(isinstance(g.index, Copy) for g in geps)
    # The decrement j - 1 splits the live range of (the current name of) j.
    assert len(info.subtraction_copies) == 1


def test_figure3_program_splits_subtraction_and_conditional():
    module, function = build_figure3_module()
    info = convert_to_essa(function)
    verify_function(function)
    # x4 = x2 - 2 introduces one split copy (x5 in the paper's Figure 6).
    assert len(info.subtraction_copies) >= 1
    x4_split = info.subtraction_copies[0]
    assert x4_split.split_subtraction.opcode == "sub"


def test_conversion_is_idempotent():
    module, function = build_diamond_module()
    first = convert_to_essa(function)
    count_after_first = function.instruction_count()
    second = convert_to_essa(function)
    assert second.total_copies == 0
    assert function.instruction_count() == count_after_first


def test_transformation_preserves_semantics():
    module, function = build_two_index_loop_module()
    reference = Interpreter(module)
    array = reference.allocate_array([0, 10, 20, 30, 40, 50])
    reference.run("copy_reverse", [array, 5])
    expected = reference.read_array(array, 6)

    convert_to_essa(function)
    verify_function(function)
    transformed = Interpreter(module)
    array2 = transformed.allocate_array([0, 10, 20, 30, 40, 50])
    transformed.run("copy_reverse", [array2, 5])
    assert transformed.read_array(array2, 6) == expected


def test_copies_can_be_removed_to_recover_original_shape():
    # Every copy e-SSA inserts is a pure renaming: forward-substituting its
    # source and deleting it leaves a program equivalent to the original.
    module, function = build_diamond_module()
    original_result = Interpreter(module).run("f", [2, 7])
    convert_to_essa(function)
    copies = [inst for block in function.blocks
              for inst in block.instructions if isinstance(inst, Copy)]
    assert copies
    for copy in copies:
        copy.replace_all_uses_with(copy.source)
        copy.erase_from_parent()
    verify_function(function)
    assert Interpreter(module).run("f", [2, 7]) == original_result


# ---------------------------------------------------------------------------
# One range solve per function
# ---------------------------------------------------------------------------

def _corpus():
    corpus = list(spec_sources()) + list(build_testsuite_sources(60))
    for seed in range(40):
        for depth in (2, 4, 6):
            generator = RandomProgramGenerator(
                CsmithConfig(seed=seed, pointer_depth=depth))
            corpus.append(("csmith_{}_{}".format(seed, depth),
                           generator.generate_source()))
    return corpus


def test_inherited_intervals_equal_a_fresh_solve_of_the_essa_form():
    # The conversion solves the σ-form once and gives each split copy its
    # base's interval; that table must be the fixpoint of the final form.
    for name, source in _corpus():
        module = compile_source(source, module_name=name)
        cache = FunctionAnalysisCache()
        for function in module.defined_functions():
            cache.ensure_essa(function)
            ranges = cache.ranges(function)
            fresh = RangeAnalysis(function)
            for inst in function.instructions():
                assert ranges.range_of(inst) == fresh.range_of(inst), \
                    (name, function.name, inst.short_name())
            report = VerificationReport()
            check_range_certificate(function, ranges, report)
            assert report.ok, (name, function.name)


def test_a_workload_solves_each_function_once(monkeypatch):
    solves = Counter()
    original = RangeAnalysis.__init__

    def counting(self, function, *args, **kwargs):
        solves[function] += 1
        original(self, function, *args, **kwargs)

    monkeypatch.setattr(RangeAnalysis, "__init__", counting)
    with Session(workers=0, store_path=None) as session:
        session.run_workload(spec_sources(),
                             specs=(("basicaa",), ("lt",), ("basicaa", "lt")),
                             workers=0, store=False)
    defined = sum(len(list(compile_source(source, module_name=name)
                           .defined_functions()))
                  for name, source in spec_sources())
    assert len(solves) == defined
    assert set(solves.values()) == {1}


# ---------------------------------------------------------------------------
# Classification reads σ-refined ranges
# ---------------------------------------------------------------------------

#: ``n`` is known negative only through the σ-copy of ``n < 0``.  Solving
#: the ranges on the σ-form (rather than before any copy exists) classifies
#: ``x + σ(n)`` as a decrement of ``x``, so ``x`` gets a split copy and
#: ``v[y]`` / ``v[x]`` become disambiguated.  This is the one intended
#: difference from classifying on the pre-conversion form, where the pair
#: stayed MayAlias.
SIGMA_NEGATIVE_SOURCE = """\
void f(int* v, int x, int n) { if (n < 0) { int y = x + n; v[y] = 1; v[x] = 2; } }
int main() { int v[64]; f(v, 40, 0 - 3); f(v, 40, 5); f(v, 10, 0 - 9); return v[37]; }
"""


def test_addition_of_a_sigma_refined_negative_gets_a_split_copy():
    module = compile_source(SIGMA_NEGATIVE_SOURCE, module_name="sigma_negative")
    function = module.get_function("f")
    info = convert_to_essa(function)
    verify_function(function)
    [copy] = info.subtraction_copies
    add = copy.split_subtraction
    assert add.opcode == "add" and add.rhs.kind == "sigma"
    assert copy.source is function.arguments[1]  # x
    assert copy.parent.instructions.index(copy) == \
        copy.parent.instructions.index(add) + 1
    assert "copy i64 %x ; split" in print_module(module)


def test_sigma_refined_split_verdicts_hold_under_execution():
    with Session(workers=0, store_path=None) as session:
        [result] = session.run_workload(
            [("sigma_negative", SIGMA_NEGATIVE_SOURCE)],
            specs=(("lt",), ("basicaa", "lt")), store=False)
    assert result.verdicts("lt")["f"] == "MMN"
    assert result.verdicts("basicaa+lt")["f"] == "MMN"
    module = compile_source(SIGMA_NEGATIVE_SOURCE, module_name="sigma_negative")
    assert check_adequacy(module, "main") == 3
