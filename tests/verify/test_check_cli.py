"""The ``python -m repro check`` subcommand and the stats surfaces.

``check`` is the CI gate: exit 0 when every unit verifies clean, exit 1
when any error-severity diagnostic is found, with ``--json`` for machines.
``stats`` gains a ``[verify]`` section and must not traceback against a
missing or empty configured store (friendly "no data", exit 0).
"""

import json

import pytest

from repro.api.cli import main

SOURCE = """
int sum(int *a, int n) {
  int s = 0;
  for (int i = 0; i < n; i = i + 1) {
    s = s + a[i];
  }
  return s;
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "sum.c"
    path.write_text(SOURCE, encoding="utf-8")
    return str(path)


def test_check_clean_source_exits_zero(source_file, capsys):
    assert main(["check", source_file]) == 0
    out = capsys.readouterr().out
    assert "sum: ok" in out
    assert "0 errors" in out


def test_check_json_reports_every_category(source_file, capsys):
    assert main(["check", source_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    (unit,) = payload["units"]
    assert unit["name"] == "sum"
    checked = unit["report"]["checked"]
    for category in ("ir", "essa", "range", "lt"):
        assert checked[category] > 0, category


def test_check_synth_workload(capsys):
    assert main(["check", "--synth", "testsuite", "--count", "2"]) == 0
    out = capsys.readouterr().out
    assert "TOTAL" in out
    assert "0 errors" in out


def test_check_without_sources_is_a_usage_error(capsys):
    assert main(["check"]) == 2
    assert "at least one source" in capsys.readouterr().err


def test_check_rejects_unknown_verify_mode(source_file, capsys):
    # "paranoid" was retired: post verifies pooled units too.
    for mode in ("sometimes", "paranoid"):
        assert main(["check", source_file, "--verify", mode]) == 2
        assert capsys.readouterr().err.startswith(
            "error: verify={!r} is not one of off/post".format(mode))


def test_stats_prints_verify_section(source_file, capsys):
    assert main(["stats", source_file, "--verify", "post"]) == 0
    out = capsys.readouterr().out
    assert "[verify]" in out
    assert "mode=post" in out
    assert "runs" in out


def test_stats_missing_store_is_friendly(source_file, tmp_path, capsys):
    missing = str(tmp_path / "never-created.pickle")
    assert main(["stats", source_file, "--store", missing]) == 0
    out = capsys.readouterr().out
    assert "[store]" in out
    assert "no data" in out


def test_stats_empty_store_file_is_friendly(source_file, tmp_path, capsys):
    empty = tmp_path / "empty.pickle"
    empty.write_bytes(b"")
    assert main(["stats", source_file, "--store", str(empty)]) == 0
    out = capsys.readouterr().out
    assert "[store]" in out
    assert "no data" in out


def test_stats_populated_store_shows_info(source_file, tmp_path, capsys):
    store = str(tmp_path / "warm.sqlite")
    assert main(["eval", source_file, "--store", store]) == 0
    capsys.readouterr()
    assert main(["stats", source_file, "--store", store]) == 0
    out = capsys.readouterr().out
    assert "[store]" in out
    assert "entries" in out
