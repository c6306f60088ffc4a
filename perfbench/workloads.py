"""The four workloads, measured untraced (end-to-end) and traced (layers).

All four are closed loops with one client.  ``spec16``, ``testsuite-w2``
and ``ltfacts`` are batch jobs that hand the engine a list of programs and
wait for every result before the next pass; ``churn`` is a developer who
makes the next edit once the previous one is evaluated.  See README.md for
why each workload exists and what each metric means.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import random
import resource
import time
from typing import Dict, List, Sequence

import checks
import inputs
import spans
from checks import digest, median, percentile

from repro.api import ReproConfig, Session

#: the paper's analysis configurations: BA, LT and the BA + LT chain.
SPECS = (("basicaa",), ("lt",), ("basicaa", "lt"))
#: a run keeps measuring until its tail percentile has ten samples beyond it.
MIN_SAMPLES = checks.min_samples(90)
#: set-up repetitions; ``setup_s`` reports their median.
SETUP_REPEATS = 5


def config(workers: int = 0, store_path=None) -> ReproConfig:
    """The program's default configuration, pinned against the
    environment: no store unless given, no self-checks, no tracing."""
    return ReproConfig(workers=workers, store_path=store_path, verify="off",
                       trace=None)


#: seconds the calibration kernel takes on the reference host: a 2-vCPU
#: VM at its usual speed.
REFERENCE_KERNEL_S = 0.034


def _kernel(size: int = 1000) -> int:
    """A fixed pure-Python worklist fixpoint over lists, sets and dicts: the
    kind of work the analyses do, in no code of the program."""
    rng = random.Random(1)
    successors = [[rng.randrange(size) for _ in range(3)] for _ in range(size)]
    users: List[set] = [set() for _ in range(size)]
    for node, targets in enumerate(successors):
        for target in targets:
            users[target].add(node)
    depth: Dict[int, int] = {0: 0}
    work = [0]
    while work:
        node = work.pop()
        for target in successors[node]:
            if depth.get(target, size) > depth[node] + 1:
                depth[target] = depth[node] + 1
                work.append(target)
    return sum(sorted(depth.values())) + sum(map(len, users))


def _kernel_seconds(_index: int = 0) -> float:
    """The fastest of three timed kernel runs, with the collector off.

    The collector is off so that the time does not depend on how many
    objects the program keeps alive; the fastest run is taken because
    interference only ever slows a run down.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - start)
        return min(times)
    finally:
        if collecting:
            gc.enable()


def host_slowness(processes: int = 1) -> float:
    """How much slower the host runs now than the reference host.

    The host drifts by 20% and more over minutes, in both directions, and
    process CPU time drifts with it.  Every timing the benchmark reports is
    divided by the slowness measured around it (rates are multiplied), so
    it reads as on the reference host; see README.md.  A pooled workload
    measures with as many processes at once as it has workers, so that
    every CPU the pool runs on is measured.
    """
    if processes == 1:
        return _kernel_seconds() / REFERENCE_KERNEL_S
    context = multiprocessing.get_context("fork")
    with context.Pool(processes) as pool:
        times = pool.map(_kernel_seconds, range(processes), chunksize=1)
    return sum(times) / len(times) / REFERENCE_KERNEL_S


class Run:
    """What one benchmark run found: counts, problems, report lines."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digest = ""
        self.setup_seconds: List[float] = []
        self.metrics: Dict[str, float] = {}
        self.lines: List[str] = []
        self.peak_rss_mb = 0.0
        self.slowness: List[float] = []
        self._last_slowness = 0.0

    def normalizer(self, processes: int = 1) -> float:
        """The host slowness over the span since the previous call (the
        mean of the measurements at both ends); the first call only starts
        the span and returns its one measurement."""
        now = host_slowness(processes)
        mean = (self._last_slowness + now) / 2 if self._last_slowness else now
        self._last_slowness = now
        self.slowness.append(mean)
        return mean

    def sampled(self, samples: int) -> None:
        """Take ``peak_rss_mb`` once the run has its minimum sample count,
        so that it does not depend on how many more samples the host's
        speed allows (``churn`` memory grows with every edit)."""
        if samples >= MIN_SAMPLES and not self.peak_rss_mb:
            self.peak_rss_mb = peak_rss_mb()

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)

    def audit(self, problems: List[str]) -> None:
        """Oracle findings: the run is incorrect, no unit is lost."""
        self.problems.extend(problems)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (a pool
    worker), so far."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _record(kind: str, result) -> Dict[str, object]:
    if kind == "aaeval":
        return checks.verdict_record(result)
    return checks.lessthan_record(result)


# ---------------------------------------------------------------------------
# Batch workloads: spec16, testsuite-w2, ltfacts
# ---------------------------------------------------------------------------

BATCH = {
    "spec16": (inputs.spec_sources, "aaeval", 0),
    "testsuite-w2": (inputs.testsuite_sources, "aaeval", 2),
    "ltfacts": (inputs.spec_sources, "lessthan-stats", 0),
}


class Batch:
    """One batch workload's session, inputs and reference outputs."""

    def __init__(self, run: Run, workload: str, seed: int) -> None:
        make_sources, self.kind, self.workers = BATCH[workload]
        self.run = run
        self.sources = make_sources(seed)
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.session = Session(config(self.workers))
            run.setup_seconds.append(time.perf_counter() - start)
        self.expected: List[str] = []

    def pass_(self, workers: int):
        """One pass: ``(results, per-result gaps, wall seconds)``.

        Gaps are taken between result arrivals (the first from the pass
        start), so on a serial pass each gap is one program's time.
        """
        arrivals: List[float] = []
        start = time.perf_counter()
        results = self.session.run_workload(
            self.sources, kind=self.kind, specs=SPECS, workers=workers,
            store=False,
            on_result=lambda _result: arrivals.append(time.perf_counter()))
        wall = time.perf_counter() - start
        gaps = [after - before
                for before, after in zip([start] + arrivals, arrivals)]
        return results, gaps, wall

    def reference(self) -> None:
        """Warm-up pass: its outputs are checked against the oracle and
        become the reference every later pass must repeat."""
        results, _gaps, _wall = self.pass_(self.workers)
        self.run.attempted += len(results)
        units = []
        for (name, source), result in zip(self.sources, results):
            record = _record(self.kind, result)
            self.expected.append(digest(record))
            if self.kind == "aaeval":
                self.run.audit(checks.audit_verdicts(name, source, record))
            else:
                problems, lt_sets = checks.audit_lessthan(name, source, record)
                self.run.audit(problems)
                record = dict(record, lt_sets=lt_sets)
            units.append([name, record])
        self.run.digest = digest(units)

    def check(self, results, what: str) -> List[Dict[str, object]]:
        records = [_record(self.kind, result) for result in results]
        self.run.attempted += len(records)
        wrong = [name for (name, _source), record, expected
                 in zip(self.sources, records, self.expected)
                 if digest(record) != expected]
        if wrong:
            self.run.fail(len(wrong), "{}: output differs from the reference "
                          "pass for {}".format(what, ", ".join(wrong)))
        return records


def measure_batch(run: Run, workload: str, seed: int, seconds: float) -> None:
    batch = Batch(run, workload, seed)
    batch.reference()
    rates: List[float] = []
    gaps: List[float] = []
    processes = max(1, batch.workers)
    run.normalizer(processes)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(gaps) < MIN_SAMPLES:
        try:
            results, pass_gaps, wall = batch.pass_(batch.workers)
        except Exception as error:  # one raising program sinks the pass
            run.fail(len(batch.sources), "pass raised {!r}".format(error))
            break
        slowness = run.normalizer(processes)
        batch.check(results, "pass {}".format(len(rates) + 1))
        rates.append(len(results) / wall * slowness)
        gaps.extend(gap / slowness for gap in pass_gaps)
        run.sampled(len(gaps))
    run.metrics.update({
        "programs_per_s": median(rates),
        "program_ms_p50": 1000 * percentile(gaps, 50),
        "program_ms_p90": 1000 * percentile(gaps, 90),
    })
    run.lines.append("{} passes, {} program samples".format(len(rates), len(gaps)))


def trace_batch(run: Run, workload: str, seed: int, seconds: float,
                recorder: spans.Recorder) -> None:
    batch = Batch(run, workload, seed)
    batch.reference()
    rows: List[Dict[str, float]] = []
    start = time.perf_counter()
    processes = max(1, batch.workers)
    run.normalizer(processes)
    while time.perf_counter() - start < seconds or not rows:
        pooled = batch.pass_(batch.workers) if batch.workers > 1 else None
        _results, serial_gaps, serial_wall = batch.pass_(0)
        run_id = recorder.begin_run()
        with spans.probes(recorder):
            results, _gaps, traced_wall = batch.pass_(0)
        slowness = run.normalizer(processes)
        records = batch.check(results, "traced pass {}".format(run_id))
        row = layer_metrics(recorder.run_spans(run_id), traced_wall, slowness)
        row.update(aaeval_counts(records, None))
        _results, engine_gaps, engine_wall = pooled or (None, serial_gaps,
                                                        serial_wall)
        row.update(engine_metrics(engine_gaps, engine_wall,
                                  max(1, batch.workers), sum(serial_gaps),
                                  slowness))
        row["trace_overhead_ratio"] = traced_wall / serial_wall
        # No store on a batch workload.
        row.update({"store.hit_rate": 0.0, "store.misses": 0,
                    "store.size_bytes": 0})
        rows.append(row)
    run.metrics.update(median_row(rows))
    run.lines.append("{} traced passes".format(len(rows)))


# ---------------------------------------------------------------------------
# churn
# ---------------------------------------------------------------------------

class Churn:
    """The seeded edit sequence, applied one round per fresh session.

    Each round opens a new session with its own sqlite store, runs a cold
    baseline of the current source, then makes the round's edits: a
    developer's tool session.  A session per round keeps every round alike
    (the analysis cache grows with every edit a session sees, and with it
    the full garbage collections that dominate the latency tail), so runs
    of different lengths measure the same thing.
    """

    def __init__(self, run: Run, seed: int, scratch: str) -> None:
        self.run = run
        self.scratch = scratch
        self.name, self.source = inputs.churn_base()
        self.round_size = inputs.edit_round_size(self.source)
        self.edits = inputs.churn_edits(seed, self.source)
        self.stores = 0

    def session(self) -> Session:
        """A fresh session and store after a cold baseline of the current
        source; construction, store open and baseline count as set-up."""
        self.stores += 1
        path = os.path.join(self.scratch, "store{}.sqlite".format(self.stores))
        start = time.perf_counter()
        session = Session(config(0, path))
        session.store  # opens the store
        session.update_source(self.name, self.source, SPECS)
        self.run.setup_seconds.append(time.perf_counter() - start)
        return session

    def next_edit(self) -> str:
        """Advance the current source by one edit; the edited function."""
        self.source, function = next(self.edits)
        return function

    def edit(self, session: Session, function: str):
        """Apply the current edit; ``(update, seconds)``, or ``(None, 0)``
        if it raised."""
        start = time.perf_counter()
        try:
            update = session.update_source(self.name, self.source, SPECS)
        except Exception as error:  # a failed edit is data, the loop goes on
            self.run.fail(1, "edit of {} raised {!r}".format(function, error))
            return None, 0.0
        seconds = time.perf_counter() - start
        self.run.attempted += 1
        if update.refresh.dirty != [function]:
            self.run.fail(1, "edit of {} dirtied {}".format(
                function, update.refresh.dirty))
        return update, seconds

    def final_check(self, update) -> None:
        """The last edit's verdicts must equal a cold evaluation of the same
        source, and pass the oracle."""
        cold = Session(config(0)).evaluate_source(self.name, self.source, SPECS)
        record = checks.verdict_record(cold)
        if update is None or checks.verdict_record(update.result) != record:
            self.run.fail(1, "last edit differs from a cold evaluation")
        self.run.audit(checks.audit_verdicts(self.name, self.source, record))


def measure_churn(run: Run, seed: int, seconds: float, scratch: str) -> None:
    churn = Churn(run, seed, scratch)
    latencies: List[float] = []
    rates: List[float] = []
    edit_digests: List[str] = []
    update = None
    run.normalizer()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(latencies) < MIN_SAMPLES:
        session = churn.session()
        round_latencies = []
        for _ in range(churn.round_size):
            function = churn.next_edit()
            update, elapsed = churn.edit(session, function)
            if update is None:
                continue
            round_latencies.append(elapsed)
            edit_digests.append(digest([function, checks.verdict_record(update.result)]))
        session.close()
        slowness = run.normalizer()
        if not round_latencies:
            break  # every edit of the round raised
        latencies.extend(latency / slowness for latency in round_latencies)
        rates.append(len(round_latencies) / sum(round_latencies) * slowness)
        run.sampled(len(latencies))
    churn.final_check(update)
    run.digest = digest(edit_digests[:churn.round_size])
    run.metrics.update({
        "programs_per_s": median(rates),
        "program_ms_p50": 1000 * percentile(latencies, 50),
        "program_ms_p90": 1000 * percentile(latencies, 90),
    })
    run.lines.append("{} edits in rounds of {}".format(len(latencies),
                                                       churn.round_size))


def trace_churn(run: Run, seed: int, seconds: float, scratch: str,
                recorder: spans.Recorder) -> None:
    """Replays each round of edits on two sessions, untraced and traced."""
    churn = Churn(run, seed, scratch)
    rows: List[Dict[str, float]] = []
    edit_digests: List[str] = []
    hits = misses = 0
    sizes: List[float] = []
    update = None
    run.normalizer()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not rows:
        plain, traced = churn.session(), churn.session()
        before = traced.statistics()["store"]
        latencies: List[float] = []
        traced_edits = []
        for _ in range(churn.round_size):
            function = churn.next_edit()
            update, plain_seconds = churn.edit(plain, function)
            run_id = recorder.begin_run()
            with spans.probes(recorder):
                mirror, traced_seconds = churn.edit(traced, function)
            if update is None or mirror is None:
                continue
            if (mirror.refresh.dirty != update.refresh.dirty
                    or mirror.refresh.clean != update.refresh.clean
                    or checks.verdict_record(mirror.result)
                    != checks.verdict_record(update.result)):
                run.fail(1, "traced edit of {} differs from the untraced "
                         "one".format(function))
            latencies.append(plain_seconds)
            edit_digests.append(digest([function, checks.verdict_record(update.result)]))
            traced_edits.append((run_id, traced_seconds, plain_seconds, mirror))
        after = traced.statistics()["store"]
        plain.close()
        traced.close()
        hits += after["hits"] - before["hits"]
        misses += after["misses"] - before["misses"]
        sizes.append(after["size_bytes"])
        slowness = run.normalizer()
        for run_id, traced_seconds, plain_seconds, mirror in traced_edits:
            row = layer_metrics(recorder.run_spans(run_id), traced_seconds,
                                slowness)
            row.update(aaeval_counts([checks.verdict_record(mirror.result)],
                                     mirror.refresh.dirty))
            row["trace_overhead_ratio"] = traced_seconds / plain_seconds
            row.update(engine_metrics(latencies, sum(latencies), 1,
                                      sum(latencies), slowness))
            rows.append(row)
    churn.final_check(update)
    run.digest = digest(edit_digests[:churn.round_size])
    run.metrics.update(median_row(rows))
    run.metrics.update({
        "store.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "store.misses": misses / len(rows),
        "store.size_bytes": median(sizes),
    })
    run.lines.append("{} traced edits".format(len(rows)))


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: per-layer time metric -> the span whose self time it reports.
LAYER_SPANS = {
    "frontend.parse_ms": "frontend.parse",
    "frontend.lower_ms": "frontend.lower",
    "ir.mem2reg_ms": "ir.mem2reg",
    "ir.verify_ms": "ir.verify",
    "ir.fingerprint_ms": "ir.fingerprint",
    "essa.ensure_ms": "essa.ensure",
    "range.solve_ms": "range.solve",
    "lt.solve_ms": "lt.solve",
    "disamb.build_ms": "disamb.build",
    "aaeval.basicaa_ms": "aaeval.basicaa",
    "aaeval.lt_ms": "aaeval.lt",
    "aaeval.chain_ms": "aaeval.chain",
    "passes.refresh_ms": "passes.refresh",
    "churn.evaluate_ms": "churn.evaluate",
}


def _distinct(values) -> list:
    """Cache hits return the object a miss built; count each object once."""
    return list({id(value): value for value in values if value is not None}.values())


def layer_metrics(run_spans: List[spans.Span], wall: float,
                  slowness: float) -> Dict[str, float]:
    """Self times and counters of one traced pass (or edit); times are
    divided by the host ``slowness``."""
    own = spans.self_time_by_name(run_spans)
    row = {metric: 1000 * own.get(name, 0.0) / slowness
           for metric, name in LAYER_SPANS.items()}
    kept: Dict[str, list] = {}
    for span in run_spans:
        kept.setdefault(span.name, []).append(span.info)
        span.info = None  # drop references to the pass's IR
    ranges = _distinct(kept.get("range.solve", ()))
    components = sum(stats.components for stats in ranges)
    lessthan = _distinct(kept.get("lt.solve", ()))
    refreshes = [info for info in kept.get("passes.refresh", ()) if info]
    unattributed = wall - spans.top_level_time(run_spans)
    row.update({
        "frontend.instructions": sum(kept.get("frontend.lower", ())),
        "essa.split_edges": sum(info.split_edges
                                for info in _distinct(kept.get("essa.ensure", ()))),
        "range.evaluations": sum(stats.evaluations for stats in ranges),
        "range.widenings": sum(stats.widenings for stats in ranges),
        "range.reused_ratio": (sum(stats.reused_components for stats in ranges)
                               / components if components else 0.0),
        "lt.constraints": sum(stats.constraint_count for stats in lessthan),
        "lt.worklist_pops": sum(stats.worklist_pops for stats in lessthan),
        "passes.dirty": sum(dirty for dirty, _migrated in refreshes),
        "passes.migrated": sum(migrated for _dirty, migrated in refreshes),
        "trace.unattributed_ms": 1000 * unattributed / slowness,
        "trace.unattributed_ratio": unattributed / wall,
    })
    return row


def _pointers(pairs: int) -> int:
    """``n`` with ``n (n - 1) / 2 == pairs`` (0 when there is no pair)."""
    return 0 if pairs == 0 else (1 + int((1 + 8 * pairs) ** 0.5)) // 2


def aaeval_counts(records: Sequence[Dict[str, object]],
                  functions) -> Dict[str, float]:
    """Query-loop counts from verdict codes; ``functions`` limits them to
    the functions the loop ran on (``None``: every function)."""
    pairs = pointers = asked = useful = 0
    for record in records:
        if "basicaa" not in record:
            continue
        basicaa = record["basicaa"]["codes"]
        chain = record["basicaa+lt"]["codes"]
        for function in (basicaa if functions is None else functions):
            codes = basicaa[function]
            pairs += len(codes)
            pointers += _pointers(len(codes))
            asked += codes.count("M")
            useful += sum(1 for first, joined in zip(codes, chain[function])
                          if first == "M" and joined == "N")
    return {
        "aaeval.pairs": pairs,
        "aaeval.pointers": pointers,
        "aaeval.lt_asked": asked,
        "aaeval.lt_useful_ratio": useful / asked if asked else 0.0,
    }


def engine_metrics(gaps: List[float], wall: float, workers: int,
                   serial_seconds: float, slowness: float) -> Dict[str, float]:
    """Time to the first result, the straggler gap before the last one, and
    serial unit time over ``workers`` x the pass wall."""
    return {
        "engine.first_result_ms": 1000 * gaps[0] / slowness,
        "engine.tail_ms": 1000 * gaps[-1] / slowness,
        "engine.parallel_efficiency": serial_seconds / (workers * wall),
    }


def median_row(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {name: median([row[name] for row in rows]) for name in rows[0]}
