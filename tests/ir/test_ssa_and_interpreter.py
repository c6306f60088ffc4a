"""Tests for SSA construction in the lowering and for the reference interpreter."""

import pytest

from repro.frontend import compile_source
from repro.ir import INT, IRBuilder, Module, print_module, verify_function
from repro.ir.instructions import Alloca, Load, Store
from repro.ir.interpreter import Interpreter, InterpreterError, Pointer
from repro.ir.values import Undef
from repro.synth import CsmithConfig, RandomProgramGenerator, spec_sources
from tests.helpers import (
    build_counting_loop_module,
    build_diamond_module,
    build_two_index_loop_module,
)

MAX_SOURCE = """
int max(int a, int b) {
  int slot = a;
  if (a < b) slot = b;
  return slot;
}
"""


def _opcodes(function):
    return [inst.opcode for inst in function.instructions()]


def test_promotable_alloca_detection():
    # Parameters and scalars get no slot; an array and a local under ``&``
    # keep theirs.
    source = """
    int f(int n) {
      int s = 0; int t; int a[4]; int *p = &t;
      *p = n; a[0] = s; s = s + t + a[0];
      return s;
    }
    """
    function = compile_source(source).get_function("f")
    allocas = [inst for inst in function.instructions() if isinstance(inst, Alloca)]
    assert sorted(inst.name for inst in allocas) == ["a", "t"]
    assert not any(inst.name == "n.addr" for inst in function.instructions())


def test_alloca_whose_address_escapes_is_not_promotable():
    # ``&x`` pins the inner ``x`` and the parameter ``n`` to memory while
    # the outer ``x`` of the same name is promoted.
    source = """
    int f(int n) {
      int x = 1;
      { int x = n; int *p = &x; *p = *p + 1; n = x; }
      int *q = &n;
      return x + *q;
    }
    """
    function = compile_source(source).get_function("f")
    allocas = [inst.name for inst in function.instructions() if isinstance(inst, Alloca)]
    assert allocas == ["n.addr", "x.1"]
    module = compile_source(source + "int main() { return f(4); }")
    assert Interpreter(module).run("main") == 6


def test_mem2reg_introduces_phi_and_removes_memory_ops():
    function = compile_source(MAX_SOURCE).get_function("max")
    verify_function(function)
    opcodes = _opcodes(function)
    assert "alloca" not in opcodes
    assert "load" not in opcodes
    assert "store" not in opcodes
    assert "phi" in opcodes


def test_mem2reg_preserves_semantics():
    for promote in (False, True):
        module = compile_source(MAX_SOURCE, promote=promote)
        assert ("alloca" in _opcodes(module.get_function("max"))) is not promote
        assert Interpreter(module).run("max", [3, 9]) == 9
        assert Interpreter(module).run("max", [9, 3]) == 9


def test_spec_corpus_builds_no_memory_operation_for_promoted_locals(monkeypatch):
    # Every alloca, load and store the lowering builds survives into the
    # final IR: none is built only for SSA construction to erase again.
    built = []
    insert = IRBuilder._insert

    def recording_insert(self, instruction):
        built.append(instruction)
        return insert(self, instruction)

    monkeypatch.setattr(IRBuilder, "_insert", recording_insert)
    for name, text in spec_sources():
        compile_source(text, module_name=name)
    memory = [inst for inst in built if isinstance(inst, (Alloca, Load, Store))]
    assert memory
    assert all(inst.parent is not None for inst in memory)


def _run_unpromoted_and_promoted(source):
    """``main``'s result on the memory-slot IR and on the SSA IR."""
    return [Interpreter(compile_source(source, promote=promote), max_steps=400000).run("main")
            for promote in (False, True)]


@pytest.mark.parametrize("depth", [2, 4, 6])
def test_mem2reg_preserves_random_program_results(depth):
    for seed in range(40):
        config = CsmithConfig(seed=seed, pointer_depth=depth)
        source = RandomProgramGenerator(config).generate_source()
        before, after = _run_unpromoted_and_promoted(source)
        assert before == after, (seed, depth)


def test_mem2reg_rotates_slots_through_each_other():
    # Each write's value is a read of another promoted scalar.
    source = """
    int main() {
      int a = 1; int b = 2; int t = 0; int s = 0; int i = 0;
      while (i < 5) { t = a; a = b; b = t + i; s = s * 3 + a - b; i = i + 1; }
      return s;
    }
    """
    before, after = _run_unpromoted_and_promoted(source)
    assert before == after == 17


def test_mem2reg_reads_undef_before_any_store():
    source = "int main() { int x; int y = x + 3; x = 4; return y + x; }"
    assert "undef" in print_module(compile_source(source))
    assert _run_unpromoted_and_promoted(source) == [7, 7]


def test_mem2reg_slot_stored_in_one_branch():
    source = """
    int f(int c) { int x; if (c > 0) { x = c; } return x; }
    int main() { return f(5) * 10 + f(-2); }
    """
    module = compile_source(source)
    phis = [inst for inst in module.get_function("f").instructions() if inst.opcode == "phi"]
    assert len(phis) == 1
    assert any(isinstance(value, Undef) for value, _block in phis[0].incoming())
    assert _run_unpromoted_and_promoted(source) == [50, 50]


def test_mem2reg_ignores_writes_in_unreachable_predecessors():
    # The write after ``continue`` lands in a dead block that jumps to the
    # loop header; the block is removed before φs are placed, so the
    # header's φs have one entry per live predecessor and none from it.
    source = """
    int f(int c) {
      int x = 0;
      while (c > 0) { x = x + c; c = c - 1; continue; x = 100; }
      return x;
    }
    int main() { return f(4) * 10 + f(2); }
    """
    function = compile_source(source).get_function("f")
    verify_function(function)
    assert not any(block.name.startswith("dead") for block in function.blocks)
    header = function.block_by_name("while.cond1")
    for phi in header.phis():
        assert sorted(block.name for block in phi.incoming_blocks) == ["entry0", "while.body2"]
    assert _run_unpromoted_and_promoted(source) == [103, 103]


def test_interpreter_runs_counting_loop():
    module, _ = build_counting_loop_module()
    assert Interpreter(module).run("f", [5]) == 5
    assert Interpreter(module).run("f", [0]) == 0


def test_interpreter_diamond_both_paths():
    module, _ = build_diamond_module()
    assert Interpreter(module).run("f", [1, 5]) == 2   # then path: a + 1
    assert Interpreter(module).run("f", [5, 1]) == 3   # else path: b + 2


def test_interpreter_two_index_loop_reverses_prefix_into_suffix():
    module, _ = build_two_index_loop_module()
    interp = Interpreter(module)
    array = interp.allocate_array([0, 10, 20, 30, 40, 50])
    # copy_reverse copies v[j] into v[i] while i < j, j starting at N.
    interp.run("copy_reverse", [array, 5])
    values = interp.read_array(array, 6)
    assert values[0] == 50  # v[0] = v[5]
    assert values[1] == 40  # v[1] = v[4]


def test_interpreter_rejects_out_of_bounds():
    module = Module("m")
    f = module.create_function("f", INT, [], [])
    entry = f.append_block(name="entry")
    builder = IRBuilder(entry)
    slot = builder.alloca(INT, "slot", array_size=builder.const(2))
    bad = builder.gep(slot, builder.const(7), "bad")
    builder.store(builder.const(1), bad)
    builder.ret(builder.const(0))
    with pytest.raises(InterpreterError, match="out-of-bounds"):
        Interpreter(module).run("f", [])


def test_interpreter_detects_division_by_zero_and_missing_function():
    module = Module("m")
    f = module.create_function("f", INT, [INT], ["x"])
    entry = f.append_block(name="entry")
    builder = IRBuilder(entry)
    q = builder.div(f.arguments[0], builder.const(0))
    builder.ret(q)
    with pytest.raises(InterpreterError, match="division"):
        Interpreter(module).run("f", [1])
    with pytest.raises(InterpreterError, match="no function"):
        Interpreter(module).run("nope", [])


def test_interpreter_step_limit_guards_nontermination():
    module, function = build_counting_loop_module()
    with pytest.raises(InterpreterError, match="step limit"):
        Interpreter(module, max_steps=50).run("f", [10**9])


def test_interpreter_calls_between_functions():
    module = Module("m")
    callee = module.create_function("inc", INT, [INT], ["x"])
    centry = callee.append_block(name="entry")
    cb = IRBuilder(centry)
    cb.ret(cb.add(callee.arguments[0], cb.const(1)))
    caller = module.create_function("twice", INT, [INT], ["y"])
    entry = caller.append_block(name="entry")
    builder = IRBuilder(entry)
    first = builder.call(callee, [caller.arguments[0]], "first")
    second = builder.call(callee, [first], "second")
    builder.ret(second)
    assert Interpreter(module).run("twice", [10]) == 12


def test_pointer_identity_semantics():
    p = Pointer(1, 4)
    assert p.moved(2) == Pointer(1, 6)
    assert p != Pointer(2, 4)
    assert hash(p) == hash(Pointer(1, 4))
