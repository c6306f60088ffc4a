"""End-to-end tracing: pipeline spans, shard merge, CLI surface, parity."""

import json
from collections import Counter, defaultdict

import pytest

from repro.api.cli import main
from repro.api.config import ReproConfig
from repro.api.session import Session
from repro.obs import TRACER, validate_chrome_trace

SOURCE = """
int main(int n) {
  int a[16];
  int *p = a;
  int *q = a + n;
  int i = 0;
  while (i < n) { *(a + i) = i; i = i + 1; }
  return *p + *q;
}
"""

#: a second unit so pooled runs have work for both workers.
SOURCE_B = """
int sum(int* v, int N) {
  int i;
  int total = 0;
  for (i = 0; i < N; i++) { total = total + v[i]; }
  return total;
}
"""


@pytest.fixture(autouse=True)
def _reset_global_tracer():
    yield
    TRACER.disable()
    TRACER.reset()


def _load_trace(path):
    with open(str(path), "r", encoding="utf-8") as handle:
        return json.load(handle)


def _complete_events(payload):
    return [e for e in payload["traceEvents"] if e["ph"] == "X"]


def _pipeline_events(payload):
    """Complete events minus ``gc.collect``: the collector runs whenever the
    allocation counts say so, in whichever process and lane, so its spans
    are no pipeline phase and differ from run to run."""
    return [e for e in _complete_events(payload) if e["name"] != "gc.collect"]


def _lane_names(payload):
    return {e["args"]["name"] for e in payload["traceEvents"]
            if e["ph"] == "M"}


# ---------------------------------------------------------------------------
# Serial pipeline coverage
# ---------------------------------------------------------------------------

def test_traced_session_covers_every_pipeline_layer(tmp_path):
    trace = tmp_path / "trace.json"
    with Session(ReproConfig(trace=str(trace), workers=0)) as session:
        session.evaluate_source("demo", SOURCE)
    payload = _load_trace(trace)
    assert validate_chrome_trace(payload) == []
    phases = {e["name"] for e in _complete_events(payload)}
    expected = {"frontend.parse", "frontend.lower", "ir.mem2reg",
                "essa.transform", "range.solve", "lt.generate", "lt.solve",
                "disambiguate.pairs", "aaeval.verdicts", "engine.unit"}
    assert expected <= phases
    assert len(phases) >= 5  # the acceptance floor, with margin


def test_untraced_session_writes_nothing_and_buffers_nothing(tmp_path):
    with Session(ReproConfig(trace=None, workers=0)) as session:
        session.evaluate_source("demo", SOURCE)
    assert TRACER.spans() == []
    assert list(tmp_path.iterdir()) == []


def test_solver_statistics_keep_wall_times_without_tracing():
    with Session(ReproConfig(trace=None, workers=0)) as session:
        unit = session.compile(SOURCE, name="demo")
        lt = unit.lessthan()
    assert lt.statistics.solve_time_seconds > 0.0


# ---------------------------------------------------------------------------
# Shard-buffer merge under a worker pool
# ---------------------------------------------------------------------------

def _traced_pool_run(trace_path):
    with Session(ReproConfig(trace=str(trace_path), workers=2)) as session:
        session.run_workload([("unit_a", SOURCE), ("unit_b", SOURCE_B)],
                             store=False)
    return _load_trace(trace_path)


def test_pool_run_attributes_spans_to_worker_lanes(tmp_path):
    payload = _traced_pool_run(tmp_path / "pool.json")
    assert validate_chrome_trace(payload) == []
    worker_lanes = {lane for lane in _lane_names(payload)
                    if lane.startswith("worker-")}
    assert worker_lanes  # every analysis span came from a worker process
    worker_tids = {e["tid"] for e in payload["traceEvents"]
                   if e["ph"] == "M" and e["args"]["name"] in worker_lanes}
    analysis_events = [e for e in _pipeline_events(payload)
                       if e["name"] != "engine.unit"]
    assert analysis_events
    assert {e["tid"] for e in analysis_events} <= worker_tids


def test_merged_timestamps_are_monotonic_within_each_lane(tmp_path):
    payload = _traced_pool_run(tmp_path / "pool.json")
    by_lane = defaultdict(list)
    for event in _complete_events(payload):
        by_lane[event["tid"]].append(event["ts"])
    for timestamps in by_lane.values():
        assert timestamps == sorted(timestamps)


def test_pool_span_merge_is_deterministic_across_runs(tmp_path):
    # Worker-to-unit assignment varies with scheduling, so lanes may differ;
    # the merged *content* — which phases ran, how often — must not.
    first = _traced_pool_run(tmp_path / "first.json")
    second = _traced_pool_run(tmp_path / "second.json")
    count_a = Counter(e["name"] for e in _pipeline_events(first))
    count_b = Counter(e["name"] for e in _pipeline_events(second))
    assert count_a == count_b


def test_pool_and_serial_runs_record_the_same_phases(tmp_path):
    pooled = _traced_pool_run(tmp_path / "pool.json")
    with Session(ReproConfig(trace=str(tmp_path / "serial.json"),
                             workers=0)) as session:
        session.run_workload([("unit_a", SOURCE), ("unit_b", SOURCE_B)],
                             store=False)
    serial = _load_trace(tmp_path / "serial.json")
    # verify.* spans are asymmetric by design under REPRO_VERIFY=post (the
    # post mode checks in-process solves only, not pool workers); compare
    # the pipeline phases both execution shapes must share.
    assert (Counter(e["name"] for e in _pipeline_events(pooled)
                    if not e["name"].startswith("verify."))
            == Counter(e["name"] for e in _pipeline_events(serial)
                       if not e["name"].startswith("verify.")))


def test_payloads_returned_to_callers_carry_no_span_fields(tmp_path):
    with Session(ReproConfig(trace=str(tmp_path / "t.json"),
                             workers=2)) as session:
        results = session.run_workload([("unit_a", SOURCE),
                                        ("unit_b", SOURCE_B)], store=False)
    for result in results:
        assert "spans" not in result.payload
        assert "span_epoch" not in result.payload


# ---------------------------------------------------------------------------
# Session.metrics()
# ---------------------------------------------------------------------------

def test_metrics_exposes_phase_percentiles(tmp_path):
    with Session(ReproConfig(trace=str(tmp_path / "t.json"),
                             workers=0)) as session:
        session.evaluate_source("demo", SOURCE)
        metrics = session.metrics()
    solve = metrics["phases"]["range.solve"]
    for key in ("count", "total", "self", "min", "max", "p50", "p99"):
        assert key in solve
    assert solve["p50"] <= solve["p99"] <= solve["max"] + 1e-12
    assert "cache" in metrics
    assert metrics["lanes"]["main"]["spans"] >= 1


def test_metrics_without_tracing_reports_counters_only():
    with Session(ReproConfig(trace=None, workers=0)) as session:
        session.compile(SOURCE, name="demo").analyze()
        metrics = session.metrics()
    assert metrics["phases"] == {}
    assert metrics["cache"]["misses"] > 0
    assert set(metrics["interval_intern"]) == {
        "capacity", "size", "hits", "misses", "hit_rate"}


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "demo.c"
    path.write_text(SOURCE, encoding="utf-8")
    return str(path)


def test_eval_json_is_byte_identical_with_and_without_trace(
        source_file, tmp_path, capsys):
    assert main(["eval", source_file, "--json"]) == 0
    untraced = capsys.readouterr().out
    trace = tmp_path / "out.json"
    assert main(["eval", source_file, "--json", "--trace", str(trace)]) == 0
    captured = capsys.readouterr()
    assert captured.out == untraced  # stdout byte parity
    assert "wrote trace" in captured.err
    payload = _load_trace(trace)
    assert validate_chrome_trace(payload) == []
    assert len({e["name"] for e in _complete_events(payload)}) >= 5


def test_eval_trace_via_environment_variable(source_file, tmp_path,
                                             monkeypatch, capsys):
    trace = tmp_path / "env.json"
    monkeypatch.setenv("REPRO_TRACE", str(trace))
    assert main(["eval", source_file, "--json"]) == 0
    capsys.readouterr()
    assert validate_chrome_trace(_load_trace(trace)) == []


def test_stats_timings_prints_phase_table(source_file, capsys):
    assert main(["stats", source_file, "--timings"]) == 0
    out = capsys.readouterr().out
    assert "[timings]" in out
    for phase in ("range.solve", "lt.solve", "frontend.parse"):
        assert phase in out
    assert "p50" in out and "p99" in out
    # The hit-rate satellite: cache rates are spelled out.
    assert "hit_rate" in out


def test_stats_without_timings_omits_the_table(source_file, capsys):
    assert main(["stats", source_file]) == 0
    assert "[timings]" not in capsys.readouterr().out


def test_no_collection_runs_inside_an_engine_unit():
    """Units run with the collector paused: a traced spec16 pass shows
    collections only between units, never inside one."""
    from repro.synth import spec_sources

    TRACER.enable()
    with Session(ReproConfig(workers=0)) as session:
        session.run_workload(spec_sources(), store=False)
    spans = TRACER.spans()
    units = [(s["ts"], s["ts"] + s["dur"]) for s in spans
             if s["name"] == "engine.unit"]
    assert len(units) == 16
    for span in spans:
        if span["name"] == "gc.collect":
            assert not any(start <= span["ts"] <= end
                           for start, end in units), span
