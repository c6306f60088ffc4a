"""Edge cases of lowering locals straight to SSA, pinned to the slot-based IR.

Each source exercises one rule of the address-taken pre-pass or of the SSA
step.  Its printed IR (as a SHA-256) and ``main``'s result were recorded
with the earlier pipeline, which gave every local an ``alloca`` slot and
promoted the slots with mem2reg; lowering straight to SSA must reproduce
both byte for byte.
"""

import hashlib

import pytest

from repro.frontend import compile_source
from repro.ir import print_module
from repro.ir.interpreter import Interpreter

SOURCES = {
    "shadowed_address": """
int main() {
  int x = 1;
  int s = 0;
  {
    int x = 5;
    int *p = &x;
    *p = *p + 2;
    s = x;
  }
  x = x + s;
  return x;
}
""",
    "address_of_parameter": """
int bump(int n, int k) {
  int *p = &n;
  *p = *p + k;
  if (k > 0) { k = n; }
  return n + k;
}
int main() { return bump(40, 1); }
""",
    "for_init_declaration": """
int main() {
  int s = 0;
  for (int i = 0, j = 10; i < j; i++, j--) {
    int t = i * j;
    s = s + t;
  }
  for (int i = 3; i > 0; i--) s = s - i;
  return s;
}
""",
    "declaration_after_return": """
int f(int c) {
  int r = 2;
  if (c > 0) {
    return r;
    int y = c + 2;
    y = y * r;
    r = y;
  }
  while (c < 0) { c = c + 1; break; int z = c; r = z + r; }
  return r + c;
}
int main() { return f(1) * 100 + f(-3); }
""",
    "compound_assignment": """
int main() {
  int x = 3;
  int a[4];
  int *p = a;
  a[1] = 2;
  x += a[1];
  x *= 5;
  a[2] = 1;
  a[2] += x;
  p += 1;
  x -= *p;
  return x + a[2];
}
""",
    "read_before_write": """
int g(int c) {
  int x;
  int y = x + 3;
  x = 4;
  int z;
  while (c > 0) { z = c; c = c - 1; }
  return y + x + z;
}
int main() { return g(0) + g(2); }
""",
}

#: name -> (main's result, SHA-256 of the printed IR)
PINNED = {
    "shadowed_address": (8, "181fc06ada73882ef2ceb72d5b9b0f7e23e4d97c9917b8c5717127086514e9a7"),
    "address_of_parameter": (82, "f5e170fbe7d3f09662e62e3b1a16c6d09cd041408e2595965bc3ec3d10116ab3"),
    "for_init_declaration": (64, "66faf565a873f66426cbd29684ee5a21d2124cd4c2618887af0089ed798aeb9e"),
    "declaration_after_return": (200, "f920a91bb17a3f3ee1466ee6071fcf3f08ff2496154b7c597e6fe76626d6408f"),
    "compound_assignment": (49, "caa152aea656efa77f4399f3dc119e53379b1f446b47b86d4b332f949fa5c5c6"),
    "read_before_write": (15, "f1ac1f5a3ca46a5e9e103a5da8a3b4a3262571f5eb5828bedaefc710e372f6bb"),
}


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_edge_case_ir_and_result_are_pinned(name):
    result, digest = PINNED[name]
    module = compile_source(SOURCES[name], module_name=name)
    assert hashlib.sha256(print_module(module).encode("utf-8")).hexdigest() == digest
    assert Interpreter(module).run("main") == result
    # The all-slots IR computes the same.
    assert Interpreter(compile_source(SOURCES[name], promote=False)).run("main") == result

