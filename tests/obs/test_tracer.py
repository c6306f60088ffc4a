"""Tracer semantics: span nesting, the disabled no-op, shard absorption,
the collector hook."""

import gc
import pickle

import pytest

from repro.obs import NOOP_SPAN, TRACER, Tracer


@pytest.fixture
def tracer():
    return Tracer()


@pytest.fixture(autouse=True)
def _reset_global_tracer():
    yield
    TRACER.disable()
    TRACER.reset()


@pytest.fixture(autouse=True)
def _no_automatic_collections():
    """An enabled tracer records every collection as a ``gc.collect`` span;
    one landing inside a capture would add a span to the exact span lists
    these tests assert, so only explicit ``gc.collect()`` calls run."""
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


# ---------------------------------------------------------------------------
# Disabled path
# ---------------------------------------------------------------------------

def test_disabled_span_is_the_shared_noop_singleton(tracer):
    assert tracer.span("a") is NOOP_SPAN
    assert tracer.span("b", fn="f") is NOOP_SPAN


def test_disabled_span_records_nothing(tracer):
    with tracer.span("range.solve", fn="main"):
        with tracer.span("inner"):
            pass
    assert tracer.spans() == []


def test_noop_span_has_zero_duration_and_discards_annotations(tracer):
    span = tracer.span("x")
    span.annotate(result=7)
    assert span.duration == 0.0


def test_timer_measures_even_when_disabled(tracer):
    with tracer.timer("lt.solve") as timer:
        sum(range(1000))
    assert timer.seconds > 0.0
    assert tracer.spans() == []


# ---------------------------------------------------------------------------
# Enabled path: nesting, ordering, self time
# ---------------------------------------------------------------------------

def test_span_records_name_args_and_duration(tracer):
    tracer.enable()
    with tracer.span("range.solve", fn="main", solver="sparse"):
        pass
    (record,) = tracer.spans()
    assert record["name"] == "range.solve"
    assert record["args"] == {"fn": "main", "solver": "sparse"}
    assert record["dur"] >= 0.0
    assert record["depth"] == 0


def test_nested_spans_record_depth_and_close_inner_first(tracer):
    tracer.enable()
    with tracer.span("outer"):
        with tracer.span("middle"):
            with tracer.span("inner"):
                pass
    names = [record["name"] for record in tracer.spans()]
    assert names == ["inner", "middle", "outer"]  # completion order
    depths = {r["name"]: r["depth"] for r in tracer.spans()}
    assert depths == {"outer": 0, "middle": 1, "inner": 2}


def test_self_time_excludes_children(tracer):
    tracer.enable()
    with tracer.span("outer"):
        with tracer.span("child"):
            sum(range(20000))
    records = {record["name"]: record for record in tracer.spans()}
    outer, child = records["outer"], records["child"]
    assert outer["dur"] >= child["dur"]
    assert outer["self"] <= outer["dur"] - child["dur"] + 1e-9
    assert child["self"] == pytest.approx(child["dur"])


def test_sibling_spans_both_subtract_from_parent(tracer):
    tracer.enable()
    with tracer.span("parent"):
        with tracer.span("a"):
            sum(range(5000))
        with tracer.span("b"):
            sum(range(5000))
    records = {record["name"]: record for record in tracer.spans()}
    children = records["a"]["dur"] + records["b"]["dur"]
    assert records["parent"]["self"] == pytest.approx(
        records["parent"]["dur"] - children, abs=1e-6)


def test_span_timestamps_are_monotonic_in_completion(tracer):
    tracer.enable()
    for index in range(5):
        with tracer.span("step", index=index):
            pass
    starts = [record["ts"] for record in tracer.spans()]
    assert starts == sorted(starts)


def test_annotate_attaches_mid_phase_attributes(tracer):
    tracer.enable()
    with tracer.span("lt.generate") as span:
        span.annotate(constraints=42)
    (record,) = tracer.spans()
    assert record["args"]["constraints"] == 42


def test_timer_records_span_when_enabled(tracer):
    tracer.enable()
    with tracer.timer("range.solve", fn="f") as timer:
        pass
    (record,) = tracer.spans()
    assert record["name"] == "range.solve"
    assert timer.seconds >= 0.0


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------

def test_enable_clears_previous_capture(tracer):
    tracer.enable()
    with tracer.span("old"):
        pass
    tracer.disable()
    tracer.enable()
    assert tracer.spans() == []


def test_disable_retains_buffer(tracer):
    tracer.enable()
    with tracer.span("kept"):
        pass
    tracer.disable()
    assert [record["name"] for record in tracer.spans()] == ["kept"]


def test_capture_context_restores_disabled_state(tracer):
    with tracer.capture():
        with tracer.span("inside"):
            pass
    assert not tracer.enabled
    assert len(tracer.spans()) == 1


# ---------------------------------------------------------------------------
# The collector hook
# ---------------------------------------------------------------------------

def test_collections_are_recorded_as_gc_collect_spans(tracer):
    tracer.enable()
    with tracer.span("outer"):
        gc.collect()
    collect = [r for r in tracer.spans() if r["name"] == "gc.collect"]
    outer = [r for r in tracer.spans() if r["name"] == "outer"]
    assert len(collect) == 1 and len(outer) == 1
    (record,), (parent,) = collect, outer
    assert record["args"]["generation"] == 2
    assert isinstance(record["args"]["collected"], int)
    assert record["depth"] == 1 and record["self"] == record["dur"]
    assert parent["ts"] <= record["ts"] <= parent["ts"] + parent["dur"]
    # The collection is billed as the interrupted span's child.
    assert parent["self"] <= parent["dur"] - record["dur"] + 1e-9


def test_disable_removes_the_collector_hook(tracer):
    tracer.enable()
    assert tracer._on_collect in gc.callbacks
    tracer.enable()
    assert gc.callbacks.count(tracer._on_collect) == 1
    tracer.disable()
    assert tracer._on_collect not in gc.callbacks
    gc.collect()
    assert tracer.spans() == []


def test_collections_inside_suppress_are_not_recorded(tracer):
    tracer.enable()
    with tracer.suppress():
        gc.collect()
    assert tracer.spans() == []
    tracer.disable()


# ---------------------------------------------------------------------------
# The shard protocol
# ---------------------------------------------------------------------------

def test_drain_detaches_the_buffer(tracer):
    tracer.enable()
    with tracer.span("a"):
        pass
    spans = tracer.drain()
    assert [record["name"] for record in spans] == ["a"]
    assert tracer.spans() == []


def test_drained_spans_are_picklable(tracer):
    tracer.enable()
    with tracer.span("engine.unit", unit="p1", kind="aaeval"):
        pass
    spans = tracer.drain()
    assert pickle.loads(pickle.dumps(spans)) == spans


def test_absorb_shard_tags_lane_and_rebases_timestamps(tracer):
    worker = Tracer()
    worker.enable()
    with worker.span("range.solve"):
        pass
    shipped = worker.drain()
    tracer.enable()
    # A worker whose perf_counter origin differs by exactly 100s.
    epoch = tracer.clock_epoch() + 100.0
    tracer.absorb_shard(shipped, "worker-7", epoch)
    (record,) = tracer.spans()
    assert record["lane"] == "worker-7"
    assert record["ts"] == pytest.approx(shipped[0]["ts"] + 100.0)


def test_absorb_shard_is_a_noop_when_disabled(tracer):
    tracer.absorb_shard([{"name": "x", "ts": 0.0, "dur": 0.0}], "worker-1")
    assert tracer.spans() == []


def test_clock_epoch_is_memoized(tracer):
    assert tracer.clock_epoch() == tracer.clock_epoch()
