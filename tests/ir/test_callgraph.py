"""Call graph and per-function own hashes (``repro.ir.callgraph``)."""

import subprocess
import sys

from repro.frontend import compile_source
from repro.ir.callgraph import (
    CallGraph,
    function_own_hash,
    module_fingerprints,
)

CHAIN = """
int a(int x) { if (x < 10) { x = x + 1; } return x; }
int b(int x) { int y = a(x); if (y < 20) { y = y + 2; } return y; }
int c(int x) { int z = b(x); if (z < 30) { z = z + 3; } return z; }
int lone(int x) { return x + 7; }
"""

MUTUAL = """
int odd(int n) {
  if (n < 1) { return 0; }
  return even(n - 1);
}
int even(int n) {
  if (n < 1) { return 1; }
  return odd(n - 1);
}
int driver(int n) { return even(n) + odd(n); }
"""


def _prints(source):
    return module_fingerprints(compile_source(source, module_name="m"))


# -- graph shape -------------------------------------------------------------------

def test_call_graph_edges_and_closures():
    graph = CallGraph(compile_source(CHAIN, module_name="m"))
    assert graph.callees["c"] == ["b"]
    assert graph.callees["b"] == ["a"]
    assert graph.callees["a"] == []
    assert graph.callers["a"] == ["b"]
    assert graph.callers["lone"] == []


def test_components_are_callee_first():
    graph = CallGraph(compile_source(MUTUAL, module_name="m"))
    components = graph.components()
    assert sorted(map(sorted, components)) == [["driver"], ["even", "odd"]]
    # The recursive pair must be folded before its caller.
    assert components.index(sorted(components, key=len)[-1]) \
        < components.index(["driver"])


def test_undefined_callees_contribute_no_edges():
    # The mini-C frontend has no prototype syntax, so build the IR directly:
    # f calls a declared-but-bodyless g.
    from repro.ir import INT, IRBuilder, Module

    module = Module("m")
    declared = module.create_function("g", INT, [INT], ["x"])
    function = module.create_function("f", INT, [INT], ["x"])
    builder = IRBuilder(function.append_block(name="entry"))
    builder.ret(builder.call(declared, [function.arguments[0]], "r"))
    graph = CallGraph(module)
    assert graph.nodes == ["f"]
    assert graph.callees["f"] == []


def test_self_recursion_is_a_cyclic_component():
    source = """
int fact(int n) {
  if (n < 2) { return 1; }
  return n * fact(n - 1);
}
"""
    graph = CallGraph(compile_source(source, module_name="m"))
    assert graph.callees["fact"] == ["fact"]
    assert graph.components() == [["fact"]]


# -- own hashes ----------------------------------------------------------------------

def test_own_hash_tracks_printed_ir():
    module = compile_source(CHAIN, module_name="m")
    function = module.get_function("a")
    assert function_own_hash(function) == \
        module_fingerprints(module).own["a"]


def test_fingerprints_stable_across_compiles():
    first, second = _prints(CHAIN), _prints(CHAIN)
    assert first.own == second.own
    assert sorted(first.own) == ["a", "b", "c", "lone"]


def test_fingerprints_stable_across_processes():
    import os

    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    script = (
        "import sys; sys.path.insert(0, {path!r})\n"
        "from repro.frontend import compile_source\n"
        "from repro.ir.callgraph import module_fingerprints\n"
        "prints = module_fingerprints(compile_source({src!r}, module_name='m'))\n"
        "for name in sorted(prints.own):\n"
        "    print(name, prints.own[name])\n"
    ).format(path=src_dir, src=CHAIN)
    outputs = {
        subprocess.run([sys.executable, "-c", script],
                       capture_output=True, text=True, check=True).stdout
        for _ in range(2)}
    assert len(outputs) == 1
    local = _prints(CHAIN)
    lines = {line.split()[0]: line.split()[1:]
             for line in outputs.pop().strip().splitlines()}
    assert sorted(lines) == sorted(local.own)
    for name in local.own:
        assert lines[name] == [local.own[name]]
