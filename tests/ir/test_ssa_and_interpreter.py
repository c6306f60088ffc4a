"""Tests for mem2reg and the reference interpreter."""

import pytest

from repro.frontend import compile_source
from repro.ir import INT, IRBuilder, Module, pointer_to, print_module, verify_function
from repro.ir.interpreter import Interpreter, InterpreterError, Pointer
from repro.ir.ssa import promotable_allocas, promote_memory_to_registers
from repro.ir.values import Undef
from repro.synth import CsmithConfig, RandomProgramGenerator
from tests.helpers import (
    build_counting_loop_module,
    build_diamond_module,
    build_two_index_loop_module,
)


def build_alloca_max_module():
    """max(a, b) written with an alloca-backed local, as a frontend would."""
    module = Module("m")
    f = module.create_function("max", INT, [INT, INT], ["a", "b"])
    entry = f.append_block(name="entry")
    then_block = f.append_block(name="then")
    done = f.append_block(name="done")
    builder = IRBuilder(entry)
    a, b = f.arguments
    slot = builder.alloca(INT, "slot")
    builder.store(a, slot)
    cond = builder.icmp_slt(a, b)
    builder.branch(cond, then_block, done)
    builder.set_insert_point(then_block)
    builder.store(b, slot)
    builder.jump(done)
    builder.set_insert_point(done)
    result = builder.load(slot, "result")
    builder.ret(result)
    return module, f, slot


def test_promotable_alloca_detection():
    module, f, slot = build_alloca_max_module()
    assert promotable_allocas(f) == [slot]


def test_alloca_whose_address_escapes_is_not_promotable():
    module = Module("m")
    f = module.create_function("f", INT, [], [])
    entry = f.append_block(name="entry")
    builder = IRBuilder(entry)
    slot = builder.alloca(INT, "slot")
    builder.gep(slot, builder.const(1), "escaped")
    builder.ret(builder.const(0))
    assert promotable_allocas(f) == []


def test_mem2reg_introduces_phi_and_removes_memory_ops():
    module, f, slot = build_alloca_max_module()
    promoted = promote_memory_to_registers(f)
    assert promoted == 1
    verify_function(f)
    opcodes = [inst.opcode for inst in f.instructions()]
    assert "alloca" not in opcodes
    assert "load" not in opcodes
    assert "store" not in opcodes
    assert "phi" in opcodes


def test_mem2reg_preserves_semantics():
    module, f, slot = build_alloca_max_module()
    before = Interpreter(module).run("max", [3, 9])
    promote_memory_to_registers(f)
    after = Interpreter(module).run("max", [3, 9])
    assert before == after == 9
    assert Interpreter(module).run("max", [9, 3]) == 9


def _run_unpromoted_and_promoted(source):
    """``main``'s result on the memory-slot IR and on the mem2reg'd IR."""
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
    # Each store's value is a load of another promoted slot.
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


def test_mem2reg_fills_phi_entry_of_unreachable_predecessor():
    module = Module("m")
    f = module.create_function("f", INT, [INT], ["c"])
    entry = f.append_block(name="entry")
    then_block = f.append_block(name="then")
    dead = f.append_block(name="dead")
    join = f.append_block(name="join")
    builder = IRBuilder(entry)
    slot = builder.alloca(INT, "slot")
    builder.store(builder.const(0), slot)
    builder.branch(builder.icmp_slt(f.arguments[0], builder.const(0)), then_block, join)
    builder.set_insert_point(then_block)
    builder.store(builder.const(1), slot)
    builder.jump(join)
    builder.set_insert_point(dead)
    builder.jump(join)
    builder.set_insert_point(join)
    builder.ret(builder.load(slot, "result"))
    before = [Interpreter(module).run("f", [c]) for c in (-1, 1)]
    assert promote_memory_to_registers(f) == 1
    verify_function(f)
    incoming = {block.name: value for value, block in join.phis()[0].incoming()}
    assert sorted(incoming) == ["dead", "entry", "then"]
    assert isinstance(incoming["dead"], Undef)
    assert [Interpreter(module).run("f", [c]) for c in (-1, 1)] == before == [1, 0]


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
