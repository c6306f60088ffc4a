"""Tests of the benchmark's own helpers: edits, percentiles, spans, digests.

    python3 -m pytest perfbench/tests -q
"""

import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(os.path.dirname(BENCH), "src")
for path in (SRC, BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
from repro.frontend import compile_source  # noqa: E402
from repro.ir.callgraph import module_fingerprints  # noqa: E402


def test_each_edit_compiles_and_changes_one_function():
    name, source = inputs.churn_base()
    round_size = inputs.edit_round_size(source)
    previous = module_fingerprints(compile_source(source, name)).own
    edits = inputs.churn_edits(inputs.DEFAULT_SEED, source)
    edited_in_round = []
    for _ in range(round_size + 3):
        edited, function = next(edits)
        own = module_fingerprints(compile_source(edited, name)).own
        assert [f for f in own if own[f] != previous[f]] == [function]
        previous = own
        edited_in_round.append(function)
    # A round edits every function holding a literal exactly once.
    assert len(set(edited_in_round[:round_size])) == round_size


def test_edit_sequence_repeats_for_a_seed():
    _name, source = inputs.churn_base()

    def first_edits(seed):
        edits = inputs.churn_edits(seed, source)
        return [next(edits) for _ in range(5)]

    assert first_edits(3) == first_edits(3)
    assert first_edits(3) != first_edits(4)


@pytest.mark.parametrize("percent", [50, 90, 99])
def test_tail_percentile_keeps_ten_samples_beyond(percent):
    needed = checks.min_samples(percent)
    for count in range(1, 1200):
        samples = [float(value) for value in range(count)]
        if count < needed:
            with pytest.raises(ValueError):
                checks.percentile(samples, percent)
            continue
        value = checks.percentile(samples, percent)
        assert sum(1 for sample in samples if sample > value) >= checks.TAIL_SAMPLES
    assert checks.min_samples(90) == 100


def _span(name, start, end, parent, index):
    span = spans.Span(name, start, parent, 1, index)
    span.end = end
    return span


def test_self_time_subtracts_nested_and_overlapping_children():
    tree = [
        _span("root", 0.0, 10.0, None, 0),
        _span("a", 1.0, 4.0, 0, 1),
        _span("a.leaf", 2.0, 3.0, 1, 2),
        _span("b", 5.0, 9.0, 0, 3),
        _span("b.x", 5.5, 8.0, 3, 4),   # b.x and b.y overlap: union 5.5..8.5
        _span("b.y", 7.0, 8.5, 3, 5),
        _span("after", 11.0, 12.0, None, 6),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 1.0, 2.5, 1.5, 1.0])
    assert spans.top_level_time(tree) == pytest.approx(11.0)
    by_name = spans.self_time_by_name(tree + [_span("a", 12.0, 13.0, None, 7)])
    assert by_name["a"] == pytest.approx(3.0)


def test_recorder_nests_spans_and_self_times_cover_the_outer_span():
    recorder = spans.Recorder()
    run = recorder.begin_run()
    with recorder.span("outer") as outer:
        with recorder.span("inner") as inner:
            sum(range(1000))
        sum(range(1000))
    assert inner.parent == outer.index and outer.parent is None
    assert [span.run for span in recorder.spans] == [run, run]
    assert sum(spans.self_times(recorder.spans)) == pytest.approx(outer.duration)


_DIGEST_PROGRAM = """
import checks, inputs
from repro.api import ReproConfig, Session
name, source = inputs.spec_sources(inputs.DEFAULT_SEED)[0]
session = Session(ReproConfig(workers=0, store_path=None))
result = session.run_workload([(name, source)], store=False)[0]
print(checks.digest(checks.verdict_record(result)))
print(checks.lt_sets_digest(session.compile(source, name).lessthan()))
"""


def test_digests_repeat_across_hash_seeds():
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([BENCH, SRC]))
        done = subprocess.run([sys.executable, "-c", _DIGEST_PROGRAM], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=300)
        outputs.append(done.stdout.split())
    assert len(outputs[0]) == 2
    assert outputs[0] == outputs[1]
