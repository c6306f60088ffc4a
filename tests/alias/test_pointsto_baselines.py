"""Tests for the Andersen points-to baseline (CF in the paper)."""

from repro.alias import (
    AliasResult,
    AndersenAliasAnalysis,
    AndersenPointsTo,
)
from repro.ir import INT, IRBuilder, Module, pointer_to


def build_two_object_module():
    """Two allocations, a phi merging them, and a pointer loaded from memory."""
    module = Module("objects")
    int_ptr = pointer_to(INT)
    f = module.create_function("f", INT, [INT], ["flag"])
    entry = f.append_block(name="entry")
    left = f.append_block(name="left")
    right = f.append_block(name="right")
    join = f.append_block(name="join")
    builder = IRBuilder(entry)
    obj_a = builder.malloc(INT, builder.const(8), "obj_a")
    obj_b = builder.malloc(INT, builder.const(8), "obj_b")
    cond = builder.icmp_sgt(f.arguments[0], builder.const(0), "cond")
    builder.branch(cond, left, right)
    builder.set_insert_point(left)
    builder.jump(join)
    builder.set_insert_point(right)
    builder.jump(join)
    builder.set_insert_point(join)
    merged = builder.phi(int_ptr, "merged")
    merged.add_incoming(obj_a, left)
    merged.add_incoming(obj_b, right)
    builder.store(builder.const(1), merged)
    builder.ret(builder.const(0))
    return module, f, obj_a, obj_b, merged


def test_andersen_distinguishes_separate_allocations():
    module, f, obj_a, obj_b, merged = build_two_object_module()
    cf = AndersenAliasAnalysis(module)
    assert cf.alias_values(obj_a, obj_b) is AliasResult.NO_ALIAS


def test_andersen_phi_merges_points_to_sets():
    module, f, obj_a, obj_b, merged = build_two_object_module()
    points_to = AndersenPointsTo(module)
    pts = points_to.points_to_set(merged)
    assert obj_a in pts and obj_b in pts
    cf = AndersenAliasAnalysis(module)
    assert cf.alias_values(merged, obj_a) is AliasResult.MAY_ALIAS
    assert cf.alias_values(merged, obj_b) is AliasResult.MAY_ALIAS


def test_andersen_unknown_argument_aliases_everything():
    module = Module("m")
    int_ptr = pointer_to(INT)
    f = module.create_function("f", INT, [int_ptr], ["p"])
    entry = f.append_block(name="entry")
    builder = IRBuilder(entry)
    local = builder.malloc(INT, name="local")
    builder.ret(builder.const(0))
    cf = AndersenAliasAnalysis(module)
    assert cf.alias_values(f.arguments[0], local) is AliasResult.MAY_ALIAS


def test_andersen_interprocedural_argument_binding():
    module = Module("m")
    int_ptr = pointer_to(INT)
    callee = module.create_function("callee", INT, [int_ptr], ["fp"])
    centry = callee.append_block(name="entry")
    cb = IRBuilder(centry)
    cb.store(cb.const(3), callee.arguments[0])
    cb.ret(cb.const(0))
    caller = module.create_function("caller", INT, [], [])
    entry = caller.append_block(name="entry")
    builder = IRBuilder(entry)
    first = builder.malloc(INT, name="first")
    second = builder.malloc(INT, name="second")
    builder.call(callee, [first], "c1")
    builder.ret(builder.const(0))
    points_to = AndersenPointsTo(module)
    pts = points_to.points_to_set(callee.arguments[0])
    assert first in pts
    assert second not in pts
    cf = AndersenAliasAnalysis(module)
    assert cf.alias_values(callee.arguments[0], second) is AliasResult.NO_ALIAS


def test_andersen_store_load_propagation():
    module = Module("m")
    int_ptr = pointer_to(INT)
    f = module.create_function("f", INT, [], [])
    entry = f.append_block(name="entry")
    builder = IRBuilder(entry)
    target = builder.malloc(INT, name="target")
    slot = builder.malloc(int_ptr, name="slot")
    builder.store(target, slot)
    reloaded = builder.load(slot, "reloaded")
    other = builder.malloc(INT, name="other")
    builder.ret(builder.const(0))
    points_to = AndersenPointsTo(module)
    assert target in points_to.points_to_set(reloaded)
    cf = AndersenAliasAnalysis(module)
    assert cf.alias_values(reloaded, target) is AliasResult.MAY_ALIAS
    assert cf.alias_values(reloaded, other) is AliasResult.NO_ALIAS





def test_unprepared_analyses_are_conservative():
    module, f, obj_a, obj_b, merged = build_two_object_module()
    assert AndersenAliasAnalysis().alias_values(obj_a, obj_b) is AliasResult.MAY_ALIAS
