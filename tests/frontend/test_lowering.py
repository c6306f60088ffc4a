"""Tests for lowering mini-C to IR (checked by executing the result)."""

import pytest

from repro.frontend import LoweringError, compile_source
from repro.ir import verify_module
from repro.ir.interpreter import Interpreter

INS_SORT = """
void ins_sort(int* v, int N) {
  int i, j;
  for (i = 0; i < N - 1; i++) {
    for (j = i + 1; j < N; j++) {
      if (v[i] > v[j]) {
        int tmp = v[i];
        v[i] = v[j];
        v[j] = tmp;
      }
    }
  }
}
"""

PARTITION = """
void partition(int *v, int N) {
  int i, j, p, tmp;
  p = v[N / 2];
  for (i = 0, j = N - 1; 1; i++, j--) {
    while (v[i] < p) i++;
    while (p < v[j]) j--;
    if (i >= j)
      break;
    tmp = v[i];
    v[i] = v[j];
    v[j] = tmp;
  }
}
"""


def run(source, function, args, arrays=None):
    """Compile ``source``, allocate ``arrays`` and run ``function``."""
    module = compile_source(source)
    interp = Interpreter(module)
    concrete_args = []
    allocated = {}
    for arg in args:
        if isinstance(arg, list):
            pointer = interp.allocate_array(arg)
            allocated[id(arg)] = (pointer, len(arg))
            concrete_args.append(pointer)
        else:
            concrete_args.append(arg)
    result = interp.run(function, concrete_args)
    out_arrays = []
    for arg in args:
        if isinstance(arg, list):
            pointer, length = allocated[id(arg)]
            out_arrays.append(interp.read_array(pointer, length))
    return result, out_arrays


def test_simple_arithmetic_function():
    result, _ = run("int f(int a, int b) { return a * 2 + b % 3; }", "f", [5, 7])
    assert result == 11


def test_local_variables_and_assignment():
    source = "int f(int x) { int y = x + 1; int z; z = y * y; return z - 1; }"
    result, _ = run(source, "f", [3])
    assert result == 15


def test_if_else_lowering():
    source = "int mymax(int a, int b) { if (a < b) { return b; } else { return a; } }"
    assert run(source, "mymax", [3, 9])[0] == 9
    assert run(source, "mymax", [9, 3])[0] == 9


def test_while_loop_and_compound_assignment():
    source = "int sum_to(int n) { int total = 0; int i = 1; while (i <= n) { total += i; i++; } return total; }"
    assert run(source, "sum_to", [10])[0] == 55
    assert run(source, "sum_to", [0])[0] == 0


def test_for_loop_over_array_argument():
    source = """
    int sum(int* v, int n) {
        int total = 0;
        int i;
        for (i = 0; i < n; i++) total += v[i];
        return total;
    }
    """
    result, _ = run(source, "sum", [[1, 2, 3, 4, 5], 5])
    assert result == 15


def test_local_array_and_pointer_arithmetic():
    source = """
    int f() {
        int a[8];
        int* p = a;
        int i;
        for (i = 0; i < 8; i++) { p[i] = i * i; }
        return a[5] + *(p + 2);
    }
    """
    assert run(source, "f", [])[0] == 29


def test_logical_operators_in_conditions():
    source = """
    int clamp_indicator(int x, int lo, int hi) {
        if (x >= lo && x <= hi) return 1;
        if (x < lo || x > hi) return 0;
        return 2;
    }
    """
    assert run(source, "clamp_indicator", [5, 0, 10])[0] == 1
    assert run(source, "clamp_indicator", [-3, 0, 10])[0] == 0


def test_break_and_continue():
    source = """
    int count_evens_until_negative(int* v, int n) {
        int i, count = 0;
        for (i = 0; i < n; i++) {
            if (v[i] < 0) break;
            if (v[i] % 2 != 0) continue;
            count++;
        }
        return count;
    }
    """
    assert run(source, "count_evens_until_negative", [[2, 3, 4, -1, 6], 5])[0] == 2


def test_function_calls_and_malloc():
    source = """
    int square(int x) { return x * x; }
    int f(int n) {
        int* buffer = malloc(n);
        int i;
        for (i = 0; i < n; i++) buffer[i] = square(i);
        return buffer[n - 1];
    }
    """
    assert run(source, "f", [6])[0] == 25


def test_unary_operators():
    source = "int f(int x) { int y = -x; return !y + y; }"
    assert run(source, "f", [5])[0] == -5
    assert run(source, "f", [0])[0] == 1


def test_ins_sort_sorts():
    values = [5, 1, 4, 2, 3]
    _result, arrays = run(INS_SORT, "ins_sort", [values, 5])
    assert arrays[0] == [1, 2, 3, 4, 5]


def test_partition_splits_around_pivot():
    values = [9, 1, 8, 2, 7, 3, 6, 4]
    _result, arrays = run(PARTITION, "partition", [values, 8])
    out = arrays[0]
    assert sorted(out) == sorted(values)
    pivot = values[len(values) // 2]
    # After partitioning, some split point separates values <= pivot from >= pivot.
    boundary = max(i for i, value in enumerate(out) if value <= pivot)
    assert all(value <= pivot for value in out[:boundary + 1]) or \
        all(value >= pivot for value in out[boundary + 1:])


def test_verifier_accepts_all_lowered_modules():
    module = compile_source(INS_SORT + PARTITION)
    verify_module(module)
    assert module.get_function("ins_sort") is not None
    assert module.get_function("partition") is not None


def test_lowering_errors():
    with pytest.raises(LoweringError, match="undeclared"):
        compile_source("int f() { return missing; }")
    with pytest.raises(LoweringError, match="undefined function"):
        compile_source("int f() { return g(); }")
    with pytest.raises(LoweringError, match="break"):
        compile_source("int f() { break; return 0; }")
    with pytest.raises(LoweringError, match="not assignable"):
        compile_source("int f() { 3 = 4; return 0; }")
    with pytest.raises(LoweringError, match="void"):
        compile_source("int f() { void x; return 0; }")


@pytest.mark.parametrize("source, message", [
    ("int f(int *a, int c) {\n int x = 1;\n if (c) x = a;\n return x; }",
     r"cannot assign i64\* to i64 \(line 3\)"),
    ("int f(int *a) {\n int x = a;\n return x; }",
     r"cannot assign i64\* to i64 \(line 2\)"),
    ("int f(int *a) {\n int *p;\n p = 1;\n return *p; }",
     r"cannot assign i64 to i64\* \(line 3\)"),
    ("int f(int **a) {\n *a = 2;\n return 0; }",
     r"cannot assign i64 to i64\* \(line 2\)"),
], ids=["assign-pointer-to-int", "init-pointer-to-int", "assign-int-to-pointer",
        "store-int-through-pointer"])
def test_ill_typed_store_is_a_lowering_error(source, message):
    """A store whose value type differs from the slot's element type is
    rejected at the assignment, before it can surface as an ill-typed phi."""
    with pytest.raises(LoweringError, match=message):
        compile_source(source)


@pytest.mark.parametrize("source, message", [
    ("int f() { return 1; }\nint f() { return 2; }",
     r"redefinition of function 'f' \(line 2\)"),
    ("int main(int a,\n int a) { return a; }",
     r"duplicate parameter 'a' of function 'main' \(line 2\)"),
], ids=["function", "parameter"])
def test_duplicate_definition_is_a_lowering_error(source, message):
    with pytest.raises(LoweringError, match=message):
        compile_source(source)


@pytest.mark.parametrize("source, message", [
    ("void g() { }\nint main() {\n return g(); }",
     r"cannot return void from function 'main' returning i64 \(line 3\)"),
    ("int g(int *p) { return *p; }\nint main() {\n return g(3); }",
     r"cannot pass i64 as argument 1 of 'g', which expects i64\* \(line 3\)"),
    ("int g(int a, int *p) { return a; }\nint main(int *q) {\n return g(q, q); }",
     r"cannot pass i64\* as argument 1 of 'g', which expects i64 \(line 3\)"),
    ("void main() {\n return 3; }",
     r"void function 'main' cannot return a value \(line 2\)"),
    ("int main() {\n return; }",
     r"function 'main' must return a value \(line 2\)"),
    ("int *f(int *p) {\n return 0; }",
     r"cannot return i64 from function 'f' returning i64\* \(line 2\)"),
], ids=["void-value", "int-for-pointer", "pointer-for-int", "value-from-void",
        "missing-value", "int-for-pointer-return"])
def test_ill_typed_return_or_argument_is_a_lowering_error(source, message):
    with pytest.raises(LoweringError, match=message):
        compile_source(source)


def test_comparison_results_widen_to_int_returns_and_arguments():
    source = ("int id(int x) { return x; }\n"
              "int f(int a, int b) { return id(a < b) + (a == b); }")
    assert run(source, "f", [1, 2])[0] == 1
    assert run(source, "f", [2, 2])[0] == 1
    assert run(source, "f", [3, 2])[0] == 0


def test_falling_off_a_pointer_function_returns_null():
    source = ("int *f(int *p, int c) {\n if (c) return p; }\n"
              "int main() { int a[2]; a[0] = 5; int *q = f(a, 1); f(a, 0); return *q; }")
    module = compile_source(source)
    function = module.get_function("f")
    assert function.blocks[-1].terminator.value.type == function.return_type
    assert Interpreter(module).run("main") == 5


def test_void_function_returns_none():
    module = compile_source("void nothing(int x) { x = x + 1; }")
    assert Interpreter(module).run("nothing", [1]) is None
