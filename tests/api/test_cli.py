"""Tests for the ``python -m repro`` command line.

The CLI drives the same ``Session`` facade as library callers; the JSON
parity test asserts its per-pair verdicts are bit-identical to the
in-process path, and one subprocess test exercises the real
``python -m repro`` surface end to end.
"""

import json
import os
import pickle
import subprocess
import sys

import pytest

from repro.api import Session
from repro.api.cli import main
from repro.frontend import compile_source
from repro.ir.printer import print_module

SOURCE = """
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


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "ins_sort.c"
    path.write_text(SOURCE, encoding="utf-8")
    return str(path)


def test_eval_json_matches_in_process_verdicts(source_file, capsys):
    assert main(["eval", source_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)

    with Session() as session:
        results = session.run_workload(
            [("ins_sort", SOURCE)],
            specs=(("basicaa",), ("lt",), ("basicaa", "lt")),
            workers=0, store=False)
    expected = results[0]

    (unit,) = payload["units"]
    assert unit["name"] == "ins_sort"
    assert sorted(unit["labels"]) == sorted(expected.labels)
    for label in expected.labels:
        assert unit["labels"][label]["verdicts"] == expected.verdicts(label)
        assert (unit["labels"][label]["counts"]
                == expected.evaluation(label).as_dict())


def test_eval_table_and_csv(source_file, tmp_path, capsys):
    csv_path = str(tmp_path / "out.csv")
    assert main(["eval", source_file, "--csv", csv_path]) == 0
    out = capsys.readouterr().out
    assert "ins_sort" in out
    assert "basicaa+lt" in out
    with open(csv_path, encoding="utf-8") as handle:
        header = handle.readline()
    assert header.startswith("benchmark,")


def test_eval_synth_smoke(capsys):
    assert main(["eval", "--synth", "testsuite", "--count", "2"]) == 0
    out = capsys.readouterr().out
    assert "testsuite_000" in out
    assert "TOTAL" in out


def test_eval_without_input_is_an_error(capsys):
    assert main(["eval"]) == 2
    assert "eval needs" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "check"])
@pytest.mark.parametrize("synth,count", [("spec", "-3"), ("spec", "0"),
                                         ("testsuite", "-3"),
                                         ("testsuite", "0")])
def test_count_below_one_is_an_error(command, synth, count, capsys):
    assert main([command, "--synth", synth, "--count", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --count must be at least 1, got {}\n".format(
        count)


def test_print_ir_golden(source_file, capsys):
    assert main(["print-ir", source_file]) == 0
    printed = capsys.readouterr().out
    expected = print_module(compile_source(SOURCE, module_name="ins_sort"))
    assert printed == expected


def test_stats_smoke(source_file, capsys):
    assert main(["stats", source_file]) == 0
    out = capsys.readouterr().out
    assert "[less-than solver]" in out
    assert "constraints" in out
    assert "no_alias_ratio" in out


def test_store_info_evict_clear(source_file, tmp_path, capsys):
    store_path = str(tmp_path / "cli-store.sqlite")
    assert main(["eval", source_file, "--store", store_path]) == 0
    capsys.readouterr()

    assert main(["store", "info", store_path]) == 0
    info_out = capsys.readouterr().out
    assert "entries" in info_out
    assert "size_bytes" in info_out

    assert main(["store", "evict", store_path, "--max-mb", "0.000001"]) == 0
    assert "evicted" in capsys.readouterr().out

    assert main(["store", "clear", store_path]) == 0
    assert "cleared" in capsys.readouterr().out


def test_invalid_configuration_exits_2(source_file, capsys):
    assert main(["eval", source_file, "--workers", "-1"]) == 2
    assert "workers" in capsys.readouterr().err
    assert main(["eval", source_file, "--specs", "bogus"]) == 2
    assert "bogus" in capsys.readouterr().err
    # Members that were retired with their analyses get the same message.
    for retired in ("steensgaard", "tbaa"):
        assert main(["eval", source_file, "--specs", "lt," + retired]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and retired in err
        assert "basicaa/lt/andersen" in err


def test_missing_source_file_exits_2(capsys):
    assert main(["eval", "/nonexistent/path.c"]) == 2
    assert "error" in capsys.readouterr().err


def _subprocess_env():
    """The environment for ``python -m repro`` with this checkout's src."""
    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(repo_root, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_cli_subprocess_end_to_end(tmp_path):
    """The real ``python -m repro`` surface, once, in a subprocess."""
    env = _subprocess_env()
    env.pop("REPRO_WORKERS", None)  # keep the smoke run serial and fast
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "eval", "--synth", "testsuite",
         "--count", "1"],
        capture_output=True, text=True, env=env, cwd=str(tmp_path),
        timeout=120)
    assert completed.returncode == 0, completed.stderr
    assert "testsuite_000" in completed.stdout


def test_eval_synth_honours_seed_flag(capsys):
    """--seed reaches the synthetic generators (top of the precedence chain)."""
    assert main(["eval", "--synth", "testsuite", "--count", "1", "--json"]) == 0
    default_payload = json.loads(capsys.readouterr().out)
    assert main(["eval", "--synth", "testsuite", "--count", "1", "--json",
                 "--seed", "42"]) == 0
    seeded_payload = json.loads(capsys.readouterr().out)

    from repro.synth import build_testsuite_sources
    assert build_testsuite_sources(count=1, base_seed=42) \
        != build_testsuite_sources(count=1)  # the seed changes the workload
    assert seeded_payload != default_payload


def test_store_commands_refuse_missing_path(tmp_path, capsys):
    missing = str(tmp_path / "typo.sqlite")
    for action in ("info", "evict", "clear"):
        argv = ["store", action, missing]
        if action == "evict":
            argv += ["--max-mb", "1"]
        assert main(argv) == 2
        assert "no analysis store" in capsys.readouterr().err
    assert not os.path.exists(missing)  # nothing was created at the typo


@pytest.mark.parametrize("content", [
    b"\x00garbage, not a database\n" * 16,
    pickle.dumps({"meta": {"version": "aaeval-7"}, "entries": {}},
                 protocol=pickle.HIGHEST_PROTOCOL),
], ids=["garbage", "old-pickle-store"])
def test_store_path_that_is_not_a_database_exits_2(source_file, tmp_path,
                                                    capsys, content):
    """A non-sqlite file at the store path (an old pickled-dict store, a
    stray file) is a diagnostic and exit 2, never a traceback."""
    bad = tmp_path / "bad.sqlite"
    bad.write_bytes(content)
    for argv in (["eval", source_file, "--store", str(bad)],
                 ["stats", source_file, "--store", str(bad)],
                 ["store", "info", str(bad)],
                 ["store", "clear", str(bad)]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bad.sqlite" in err, argv
    assert bad.read_bytes() == content
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "store", "info", str(bad)],
        capture_output=True, text=True, env=_subprocess_env(), timeout=120)
    assert completed.returncode == 2
    assert "error:" in completed.stderr
    assert "Traceback" not in completed.stderr


@pytest.mark.parametrize("bad_source", [
    "int f(int x) { return x +; }\n",
    "int f(int x) { return x @ 1; }\n",
    "int f(int x) { return y; }\n",
    "int f(int *a, int c) { int x = 1; if (c) x = a; return x; }\n",
    "int main() { int x = \u00b2; return x; }\n",
    "int f() { return 1; } int f() { return 2; }\n",
    "int main(int a, int a) { return a; }\n",
    "void g() { } int main() { return g(); }\n",
    "int g(int *p) { return 0; } int main() { return g(3); }\n",
], ids=["parse", "lexer", "lowering", "store-type", "unicode-digit", "duplicate-function",
        "duplicate-parameter", "return-type", "argument-type"])
def test_source_that_does_not_compile_exits_2(source_file, tmp_path, capsys,
                                              bad_source):
    """A source the frontend rejects is a diagnostic and exit 2, never a
    traceback."""
    bad = tmp_path / "bad.c"
    bad.write_text(bad_source, encoding="utf-8")
    for argv in (["eval", str(bad), source_file],
                 ["check", str(bad)],
                 ["stats", str(bad)]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "line 1" in err, argv
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "eval", str(bad), source_file],
        capture_output=True, text=True, env=_subprocess_env(), timeout=120)
    assert completed.returncode == 2
    assert completed.stderr.startswith("error:")
    assert "Traceback" not in completed.stderr


def test_failing_stats_timings_stops_the_tracer(tmp_path, capsys):
    """``stats --timings`` captures spans for the command only: a command
    that fails leaves the process-global tracer off and its gc hook
    unregistered."""
    import gc

    from repro.obs import TRACER

    bad = tmp_path / "bad.c"
    bad.write_text("int f(int x) { return x +; }\n", encoding="utf-8")
    assert not TRACER.enabled
    assert main(["stats", "--timings", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not TRACER.enabled
    assert TRACER._on_collect not in gc.callbacks


def test_eval_rejects_json_with_csv(source_file, tmp_path, capsys):
    csv_path = str(tmp_path / "out.csv")
    assert main(["eval", source_file, "--json", "--csv", csv_path]) == 2
    assert "mutually exclusive" in capsys.readouterr().err
    assert not os.path.exists(csv_path)


def _sequential_branches(count):
    """One function of ``count`` sequential ``if`` statements: a CFG (and a
    dominator tree) as deep as the function is long."""
    body = "".join("  if (x > {0}) {{ x = x - 1; }}\n".format(i)
                   for i in range(count))
    return "int f(int x) {{\n{}  return x;\n}}\n".format(body)


def _long_sum(terms):
    """``int y = x + x + ... + x;`` with ``terms`` terms: a left-deep chain."""
    return "int f(int x) {{\n  int y = {};\n  return y;\n}}\n".format(
        " + ".join(["x"] * terms))


@pytest.mark.parametrize("source", [_sequential_branches(3000), _long_sum(700)],
                         ids=["3000-branches", "700-term-sum"])
def test_deep_cfgs_and_long_expressions_evaluate(tmp_path, capsys, source):
    """Neither a long function nor a long expression is bounded by the
    interpreter's recursion limit."""
    path = tmp_path / "deep.c"
    path.write_text(source, encoding="utf-8")
    assert main(["eval", str(path), "--json"]) == 0
    (unit,) = json.loads(capsys.readouterr().out)["units"]
    assert unit["name"] == "deep"


@pytest.mark.parametrize("expression", ["(" * 1500 + "x" + ")" * 1500,
                                        "- " * 3000 + "x"],
                         ids=["parentheses", "unary"])
def test_nesting_too_deep_exits_2(tmp_path, capsys, expression):
    """Nesting deeper than the stack is a located diagnostic, not a crash."""
    bad = tmp_path / "nested.c"
    bad.write_text("int f(int x) {{ int y = {}; return y; }}\n".format(
        expression), encoding="utf-8")
    for argv in (["eval", str(bad)], ["check", str(bad)],
                 ["stats", str(bad)]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nested.c" in err, argv
        assert "nesting too deep" in err, argv
